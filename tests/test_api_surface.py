"""Guards on the package surface: no dead imports, no export or method nothing uses.

The scans read the source with ``ast``, so they see what a module binds
and references, not what happens to be importable at run time.  A use is
a reference from ``src/`` or a name in a ``perfbench/`` module; tests and
docs do not count, so code only a test calls does not stay in the package.
Fresh interpreters check what the package loads: ``import quantaequiv``
loads neither scipy, jsonschema nor numpy; a run of an exact suite loads no
numpy; a grid suite loads it, through the one import in ``rieffel``; and a
suite run loads no package metadata.
"""

import ast
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import quantaequiv
from quantaequiv import harness, rieffel

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quantaequiv"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_names(tree):
    """Names bound by import statements, with the line of each."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                out.append((alias.asname or alias.name, node.lineno))
    return out


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _referenced_names(node):
    """Bare names and attribute names (``rl.dot`` references ``dot``)."""
    return _names(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_no_unused_imports():
    # the package __init__ imports in order to export; the export guard covers it
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    unused = []
    for path in files:
        tree = _tree(path)
        used = _names(tree)
        for name, line in _imported_names(tree):
            if name not in used:
                unused.append("%s:%d %s" % (path.relative_to(ROOT), line, name))
    assert not unused, "imported but never referenced: %s" % ", ".join(unused)


def _references_outside_own_definition(tree):
    """Referenced names, leaving out each top-level def or class's own body."""
    used = set()
    for stmt in tree.body:
        names = _referenced_names(stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        used |= names
    return used


def _perfbench_words():
    """Every word of the benchmark's own modules (its traced names), not its tests."""
    text = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    return set(re.findall(r"\w+", "\n".join(text)))


def _lazy_exports(tree):
    """The names a module resolves on first read: its _GRID_NAMES tuple."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and [_names(t) for t in stmt.targets] == [{"_GRID_NAMES"}]:
            return list(ast.literal_eval(stmt.value))
    return []


def test_every_export_is_used():
    init = _tree(PACKAGE / "__init__.py")
    exports = [name for name, _ in _imported_names(init)] + _lazy_exports(init)
    assert "moyal_product" in exports
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _references_outside_own_definition(_tree(path))
    words = _perfbench_words()
    idle = [name for name in exports if name not in used and name not in words]
    assert not idle, "exported but used by no module and named by no perfbench module: %s" % idle


def _top_level_bindings(tree):
    """(name, statement) for each def, class or assignment target at module level."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        yield node.id, stmt


def test_every_top_level_name_is_used():
    # A module attribute such as __version__ is metadata, not code.  A binding
    # counts as used when another top-level statement of src/ references it
    # (in any module), or when a perfbench module names it.
    statements = [s for p in sorted(PACKAGE.glob("*.py")) for s in _tree(p).body]
    refs = Counter()
    for stmt in statements:
        refs.update(_referenced_names(stmt))
    words = _perfbench_words()
    idle = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, stmt in _top_level_bindings(_tree(path)):
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = refs[name] - (name in _referenced_names(stmt))
            if outside == 0 and name not in words:
                idle.append("%s:%d %s" % (path.name, stmt.lineno, name))
    assert not idle, "bound at top level, used by no other statement of src/: %s" % idle


def _attribute_counts(node):
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_public_method_is_used():
    # Matched by attribute name, whatever the type of x in ``x.name``: a
    # method that shares its name with another class's (compose, inverse)
    # counts as used when either one is referenced.
    trees = {path: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    refs = sum((_attribute_counts(tree) for tree in trees.values()), Counter())
    words = _perfbench_words()
    idle = []
    for path, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                outside = refs[fn.name] - _attribute_counts(fn)[fn.name]
                if outside == 0 and fn.name not in words:
                    idle.append("%s:%d %s.%s" % (path.name, fn.lineno, cls.name, fn.name))
    assert not idle, "method referenced by no module and named by no perfbench module: %s" % idle


def _modules_after(fresh_env, code):
    """The names in sys.modules of a fresh interpreter that has run `code`."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=fresh_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _numpy(modules):
    return [m for m in modules if m == "numpy" or m.startswith("numpy.")]


def test_import_loads_neither_scipy_nor_jsonschema(fresh_env):
    """The package needs neither: the tests use scipy as a reference, and
    config validation is the package's own."""
    loaded = [m for m in _modules_after(fresh_env, "import quantaequiv")
              if m.startswith(("scipy", "jsonschema"))]
    assert not loaded, "import quantaequiv loaded %s" % ", ".join(loaded)


def test_suite_run_loads_no_package_metadata(fresh_env):
    # importlib.metadata pulls in the email package, csv and socket
    code = (
        "from quantaequiv.harness import default_config, run_suite\n"
        "run_suite(default_config('weyl-sdq'))"
    )
    loaded = [m for m in _modules_after(fresh_env, code)
              if m == "importlib.metadata" or m.startswith(("importlib.metadata.", "email"))]
    assert not loaded, "a weyl-sdq run loaded %s" % ", ".join(loaded)


def test_import_loads_no_numpy(fresh_env):
    loaded = _numpy(_modules_after(fresh_env, "import quantaequiv"))
    assert not loaded, "import quantaequiv loaded %s" % ", ".join(loaded[:5])


@pytest.mark.parametrize("suite", ["weyl-laws", "weyl-sdq", "equivalence-weyl"])
def test_exact_suite_run_loads_no_numpy(fresh_env, tmp_path, suite):
    # set up as the benchmark's exact workload does, then run through the CLI
    code = (
        "from quantaequiv import cli, harness\n"
        "harness.validate_config(harness.default_config(%r))\n"
        "assert cli.main(['run', %r, '--out', %r, '--format', 'csv']) == 0"
        % (suite, suite, str(tmp_path))
    )
    loaded = _numpy(_modules_after(fresh_env, code))
    assert not loaded, "a %s run loaded %s" % (suite, ", ".join(loaded[:5]))


@pytest.mark.parametrize("suite", ["rieffel-sdq", "rieffel-morphisms", "weyl-transform"])
def test_grid_config_validation_loads_numpy(fresh_env, suite):
    # validating a grid config builds its Grid2n: the grid half loads at set-up
    code = "from quantaequiv import harness\nharness.validate_config(harness.default_config(%r))"
    assert "numpy" in _modules_after(fresh_env, code % suite)


def test_numpy_is_imported_only_by_rieffel():
    # rieffel's import holds the one-OpenBLAS-thread rule; every other module
    # reads numpy from rieffel, so no path loads it around the rule
    importers = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy")
    }
    assert importers == {"rieffel.py"}


def test_first_read_of_a_grid_name_loads_the_grid_half(fresh_env):
    code = "import quantaequiv\nquantaequiv.moyal_product"
    modules = _modules_after(fresh_env, code)
    assert "quantaequiv.rieffel" in modules and "numpy" in modules


def test_lazy_grid_names_are_rieffels():
    for module in (quantaequiv, harness):
        for name in quantaequiv._GRID_NAMES:
            assert getattr(module, name) is getattr(rieffel, name), (module.__name__, name)
    assert set(quantaequiv._GRID_NAMES) <= set(dir(quantaequiv))
    star = {}
    exec("from quantaequiv import *", star)
    assert set(quantaequiv._GRID_NAMES) <= set(star)
    assert star["GridError"] is rieffel.GridError
    assert star["convergence_study"] is rieffel.convergence_study
    for module in (quantaequiv, harness):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            getattr(module, "no_such_name")


_STAMP_KEYS = {
    "weyl-sdq": ["machine", "platform", "python"],
    "weyl-transform": ["machine", "numpy", "platform", "python"],
}


@pytest.mark.parametrize("preload", ["", "import numpy\n"], ids=["fresh", "numpy-preloaded"])
@pytest.mark.parametrize("suite", sorted(_STAMP_KEYS))
def test_stamp_keys_follow_the_suite(fresh_env, suite, preload):
    # the suite decides the stamp, not what the process happened to import
    code = preload + (
        "import json\n"
        "from quantaequiv.harness import default_config, run_suite\n"
        "print(json.dumps(sorted(run_suite(default_config(%r))['environment'])))" % suite
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=fresh_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == _STAMP_KEYS[suite]
