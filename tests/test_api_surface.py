"""Guards on the package surface: no dead imports, no export or method nothing uses.

The scans read the source with ``ast``, so they see what a module binds
and references, not what happens to be importable at run time.  A use is
a reference from ``src/`` or a name in a ``perfbench/`` module; tests and
docs do not count, so code only a test calls does not stay in the package.
A fresh interpreter checks what ``import quantaequiv`` loads: numpy, not
scipy or jsonschema; and that a suite run loads no package metadata.
"""

import ast
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

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


def test_every_export_is_used():
    exports = [name for name, _ in _imported_names(_tree(PACKAGE / "__init__.py"))]
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


def test_import_loads_neither_scipy_nor_jsonschema(fresh_env):
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
