"""Benchmark of the six default suites, as three workloads, end to end and per layer.

    python3 perfbench/run.py --workload {exact,grid-product,oscillator}
                             --seed N --seconds S --trace {0,1}

Run from the root of the repository.  Each round of a workload is a fresh
interpreter (``worker.py``) that runs the workload's suites through
``quantaequiv.cli.main`` with their default configs and the default worker
pool, writing reports and CSV tables under ``perfbench/out/<workload>/``.

``--trace 0`` makes set-up probes (fresh interpreters that stop at the end
of set-up), then whole rounds until ``--seconds`` have passed (at least
one), and prints the end-to-end metrics: the medians over rounds of
``wall_s``, ``cpu_s`` and ``peak_rss_mb``, and the median ``setup_s`` over
probes and rounds.

``--trace 1`` runs one untraced round and then one traced round, and
prints the per-layer metrics of the traced round, the untraced per-suite
wall times, and the tracing overhead (traced minus untraced wall time).
The two rounds must also replay: reports byte-identical apart from the
timestamp, tables byte-identical.

Every round's outputs are checked (see ``checks.py``) and the workload's
negative controls run; each check is one operation.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 3
# Every run must end within 180 s; no round starts after this many seconds.
ROUND_DEADLINE_S = 170.0


class RoundError(RuntimeError):
    pass


def _run_worker(root, workload, seed, out_dir, deadline, trace=False, setup_only=False):
    """Start one fresh worker; return its result and the set-up time seen from here."""
    os.makedirs(out_dir)
    result_path = os.path.join(out_dir, "result.json")
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--out", out_dir,
        "--result", result_path,
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    timeout = max(1.0, deadline - time.perf_counter())
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=root, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundError("worker did not finish within %.0f s" % exc.timeout) from exc
    with open(os.path.join(out_dir, "worker.log"), "w", encoding="utf-8") as fh:
        fh.write(proc.stdout)
        fh.write(proc.stderr)
    if proc.returncode != 0:
        raise RoundError(
            "worker exited with %d:\n%s" % (proc.returncode, proc.stderr[-2000:])
        )
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready"] - started
    return result


def _check_round(workload, out_dir, result):
    ops = []
    for suite in workloads.WORKLOADS[workload]:
        report_text, tables = checks.read_suite_output(out_dir, suite)
        ops.extend(checks.check_suite(suite, result["suites"][suite]["exit_code"], report_text, tables))
    ops.extend(tuple(op) for op in result["controls"])
    return ops


def _round_totals(result):
    suites = result["suites"].values()
    return (
        sum(s["wall_s"] for s in suites),
        sum(s["cpu_s"] for s in suites),
        result["peak_rss_kb"] / 1024.0,
    )


def run_untraced(root, workload, seed, seconds, out_root, deadline, log):
    setups = []
    for k in range(SETUP_PROBES):
        probe = _run_worker(
            root, workload, seed, os.path.join(out_root, "setup-%d" % k), deadline,
            setup_only=True,
        )
        setups.append(probe["setup_s"])
    log("set-up probes: %s s" % ", ".join("%.4f" % s for s in setups))

    ops, walls, cpus, rss = [], [], [], []
    first = time.perf_counter()
    while True:
        out_dir = os.path.join(out_root, "round-%d" % len(walls))
        started = time.perf_counter()
        result = _run_worker(root, workload, seed, out_dir, deadline)
        setups.append(result["setup_s"])
        wall, cpu, peak = _round_totals(result)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        _log_round(log, len(walls), result)
        ops.extend(_check_round(workload, out_dir, result))
        now = time.perf_counter()
        if now - first >= seconds or now + (now - started) > deadline:
            break
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
    }
    return {name: (values[name], unit) for name, unit in workloads.END_TO_END}, ops


def run_traced(root, workload, seed, out_root, deadline, log):
    plain_dir = os.path.join(out_root, "round-untraced")
    plain = _run_worker(root, workload, seed, plain_dir, deadline)
    _log_round(log, "untraced", plain)
    traced_dir = os.path.join(out_root, "round-traced")
    traced = _run_worker(root, workload, seed, traced_dir, deadline, trace=True)
    _log_round(log, "traced", traced)
    log("spans written: %d (%s)" % (traced["spans"], os.path.join(traced_dir, "spans.json")))

    ops = _check_round(workload, plain_dir, plain) + _check_round(workload, traced_dir, traced)
    for suite in workloads.WORKLOADS[workload]:
        ops.append(
            checks.check_replay(
                suite,
                checks.read_suite_output(plain_dir, suite),
                checks.read_suite_output(traced_dir, suite),
            )
        )

    plain_wall = _round_totals(plain)[0]
    traced_wall = _round_totals(traced)[0]
    values = dict(traced["layers"])
    for suite in workloads.all_suites():
        values["harness.%s.s" % suite] = plain["suites"].get(suite, {}).get("wall_s", 0.0)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    log(
        "tracing overhead: %.3f s on %.3f s untraced wall (%.1f%%)"
        % (traced_wall - plain_wall, plain_wall, 100.0 * (traced_wall - plain_wall) / plain_wall)
    )
    metrics = {name: (values[name], unit) for name, unit in workloads.per_layer_metrics()}
    return metrics, ops


def _log_round(log, label, result):
    parts = [
        "%s %.3f s wall %.3f s cpu exit %s"
        % (suite, s["wall_s"], s["cpu_s"], s["exit_code"])
        for suite, s in result["suites"].items()
    ]
    log(
        "round %s: %s; peak rss %.1f MB; set-up %.4f s"
        % (label, "; ".join(parts), result["peak_rss_kb"] / 1024.0, result["setup_s"])
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    start = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "quantaequiv", "__init__.py")):
        print(
            "perfbench: no src/quantaequiv under %s; run from the repository root" % root,
            file=sys.stderr,
        )
        return 2
    out_root = os.path.join(OUT, args.workload)
    shutil.rmtree(out_root, ignore_errors=True)
    os.makedirs(out_root)

    def log(line):
        print(line, flush=True)

    log(
        "perfbench: workload %s (%s), seed %d, seconds %d, trace %d, cpus %s, "
        "QUANTAEQUIV_THREADS=%s"
        % (
            args.workload,
            ", ".join(workloads.WORKLOADS[args.workload]),
            args.seed,
            args.seconds,
            args.trace,
            os.cpu_count(),
            os.environ.get("QUANTAEQUIV_THREADS", "(unset)"),
        )
    )
    deadline = start + ROUND_DEADLINE_S
    try:
        if args.trace:
            metrics, ops = run_traced(root, args.workload, args.seed, out_root, deadline, log)
        else:
            metrics, ops = run_untraced(
                root, args.workload, args.seed, args.seconds, out_root, deadline, log
            )
    except RoundError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    failed = [op for op in ops if not op[1]]
    for name, _, detail in failed:
        log("FAILED %s: %s" % (name, detail))
    for name, (value, unit) in metrics.items():
        log("metric %s = %.6g %s" % (name, value, unit))
    log("operations: %d attempted, %d failed" % (len(ops), len(failed)))
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
