"""Replay the default suites on a parent revision and on this tree, and diff.

    python tools/replay_diff.py <parent-revision>

Exports the parent's src/ with `git archive` into a temporary directory,
then runs `python -m quantaequiv.cli run <suite> --format csv` for every
suite of this tree's `list-suites`, on both trees, once under the default
thread pool and once under QUANTAEQUIV_THREADS=1.  Each pair of runs writes
a report and its CSV tables; the files are compared byte for byte with the
report's "timestamp" line stripped.  Every file that differs is printed,
and for a report every check whose value moved, old and new side by side,
then the first changed lines of each file.
Exits 1 on any difference, 0 when every file matches.
"""

import difflib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETTINGS = (("default pool", None), ("QUANTAEQUIV_THREADS=1", "1"))
_SHOWN_LINES = 10  # changed lines printed per file


def export_src(revision, into):
    """The src/ of `revision`, unpacked under `into`; returns its path."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision, "src"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return Path(into) / "src"


def run_cli(src, out, *args, threads=None):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    env.pop("QUANTAEQUIV_THREADS", None)
    if threads is not None:
        env["QUANTAEQUIV_THREADS"] = threads
    out.mkdir(parents=True, exist_ok=True)
    return subprocess.run(
        [sys.executable, "-m", "quantaequiv.cli", *args],
        cwd=out, env=env, capture_output=True, text=True,
    )


def stripped(path):
    lines = path.read_bytes().splitlines(keepends=True)
    if path.suffix == ".json":
        lines = [line for line in lines if not line.lstrip().startswith(b'"timestamp"')]
    return b"".join(lines)


def moved_values(old_path, new_path):
    """(check id, old value, new value) for each check whose value differs."""
    old, new = (json.loads(p.read_text()) for p in (old_path, new_path))
    old_checks = {c["id"]: c.get("value") for c in old.get("checks", [])}
    new_checks = {c["id"]: c.get("value") for c in new.get("checks", [])}
    return [
        (cid, old_checks.get(cid), new_checks.get(cid))
        for cid in sorted(set(old_checks) | set(new_checks))
        if old_checks.get(cid) != new_checks.get(cid)
    ]


def compare(old_dir, new_dir, label):
    """Print each difference between two runs' files; returns their count."""
    names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    differences = 0
    for name in names:
        old_path, new_path = old_dir / name, new_dir / name
        if not old_path.exists() or not new_path.exists():
            side = "parent" if old_path.exists() else "this tree"
            print("%s: %s is written only by %s" % (label, name, side))
            differences += 1
            continue
        if stripped(old_path) == stripped(new_path):
            continue
        differences += 1
        print("%s: %s differs" % (label, name))
        if name.endswith(".report.json"):
            for cid, before, after in moved_values(old_path, new_path):
                print("    %s: %r -> %r" % (cid, before, after))
        changed = [
            line for line in difflib.unified_diff(
                stripped(old_path).decode().splitlines(), stripped(new_path).decode().splitlines(),
                lineterm="", n=0)
            if line[:1] in "-+" and line[:3] not in ("---", "+++")
        ]
        for line in changed[:_SHOWN_LINES]:
            print("    " + line)
        if len(changed) > _SHOWN_LINES:
            print("    ... %d more changed lines" % (len(changed) - _SHOWN_LINES))
    return differences


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    differences = files = 0
    with tempfile.TemporaryDirectory(prefix="replay-diff-") as scratch:
        scratch = Path(scratch)
        listing = run_cli(ROOT / "src", scratch, "list-suites")
        if listing.returncode != 0:
            print(listing.stderr, file=sys.stderr)
            return 2
        suites = listing.stdout.split()
        trees = {"parent": export_src(argv[0], scratch / "parent"), "this tree": ROOT / "src"}
        for label, threads in SETTINGS:
            for suite in suites:
                outs = {}
                for side, src in trees.items():
                    outs[side] = scratch / "out" / side / (threads or "pool") / suite
                    done = run_cli(src, outs[side], "run", suite, "--format", "csv",
                                   threads=threads)
                    if done.returncode not in (0, 1):
                        print("%s, %s on %s: exit %d\n%s"
                              % (label, suite, side, done.returncode, done.stderr))
                        differences += 1
                files += len(list(outs["this tree"].iterdir()))
                differences += compare(outs["parent"], outs["this tree"],
                                       "%s, %s" % (label, suite))
    print("%d files compared, %d differences" % (files, differences))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
