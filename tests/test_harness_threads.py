"""The BLAS thread policy: numpy loaded with one OpenBLAS thread unless the
user chose a count or loaded numpy first; one OpenBLAS thread while the
checks run, for one worker as for a pool, the previous count back
afterwards, and no change when numpy's OpenBLAS cannot be found."""

import ctypes
import glob
import json
import os
import subprocess
import sys
import threading

import pytest

from quantaequiv import harness

_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# argv: "numpy" to import numpy before the package, or "package"; then a
# grid suite whose default config is validated, or "moyal_product" for the
# first read of that name.  Threads are counted from /proc/self/task:
# OpenBLAS starts count - 1 of its own at load.
_LOAD_SCRIPT = r"""
import json, os, subprocess, sys

first, entry = sys.argv[1:]
chosen = None
if first == "numpy":
    import numpy
    chosen = len(os.listdir("/proc/self/task"))
import quantaequiv
from quantaequiv import harness
if entry == "moyal_product":
    quantaequiv.moyal_product
else:
    harness.validate_config(harness.default_config(entry))
loaded = "numpy" in sys.modules
threads = len(os.listdir("/proc/self/task"))
child = subprocess.run(
    [sys.executable, "-c", "import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
    capture_output=True, text=True, check=True,
).stdout.strip()
found = harness._openblas_threads()
count = raised = None
if found is not None:
    get, put = found
    count = get()
    put(2)
    raised = get()
print(json.dumps({
    "loaded": loaded, "chosen": chosen, "threads": threads, "count": count,
    "raised": raised, "variable": os.environ.get("OPENBLAS_NUM_THREADS"), "child": child,
}))
"""


def _load(fresh_env, first, entry, **variables):
    """What _LOAD_SCRIPT saw, in a fresh interpreter whose environment holds
    none of the three BLAS variables but `variables`."""
    env = fresh_env()
    for name in _BLAS_VARIABLES:
        env.pop(name, None)
    env.update(variables)
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_SCRIPT, first, entry],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["loaded"]
    if seen["count"] is None:
        pytest.skip("numpy's bundled OpenBLAS is not found in this install")
    return seen


_needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="threads are counted from /proc/self/task"
)


@_needs_proc
@pytest.mark.parametrize(
    "entry", ["rieffel-sdq", "rieffel-morphisms", "weyl-transform", "moyal_product"]
)
def test_package_loads_numpy_with_one_blas_thread(entry, fresh_env):
    seen = _load(fresh_env, "package", entry)
    assert seen["count"] == 1
    assert seen["threads"] == 1  # no BLAS thread was started to be pinned away
    # the variable was set for the import alone
    assert seen["variable"] is None
    assert seen["child"] == "None"
    # the pin fixture below can still raise a one-thread start
    assert seen["raised"] == 2


@_needs_proc
@pytest.mark.parametrize("variable", _BLAS_VARIABLES)
def test_a_user_set_blas_variable_wins(variable, fresh_env):
    seen = _load(fresh_env, "package", "weyl-transform", **{variable: "2"})
    # OpenBLAS clamps the count it reads at load to the CPUs it may use
    assert seen["count"] == seen["threads"] == min(2, len(os.sched_getaffinity(0)))
    expected = "2" if variable == "OPENBLAS_NUM_THREADS" else None
    assert seen["variable"] == expected
    assert seen["child"] == str(expected)


@_needs_proc
def test_numpy_imported_first_keeps_the_count_it_chose(fresh_env):
    seen = _load(fresh_env, "numpy", "weyl-transform")
    assert seen["count"] == seen["chosen"] == seen["threads"]
    assert seen["variable"] is None
    assert seen["child"] == "None"


@pytest.fixture
def blas():
    found = harness._openblas_threads()
    if found is None:
        pytest.skip("numpy's bundled OpenBLAS is not found in this install")
    get, put = found
    before = get()
    # a count the pool must lower and then put back; OpenBLAS starts a
    # thread for it when it was loaded with one, on one CPU as on more
    put(2)
    assert get() == 2
    try:
        yield get
    finally:
        put(before)


def _reading(get, seen):
    def task():
        seen.append(get())
        return [harness._record("t-%02d" % len(seen), True)]

    return task


def test_pool_tasks_run_on_one_blas_thread(blas):
    seen = []
    records = harness._run_checks([_reading(blas, seen) for _ in range(4)], 2)
    assert seen == [1, 1, 1, 1]
    assert [r["status"] for r in records] == ["pass"] * 4


def test_pool_restores_the_count_after_a_normal_return(blas):
    before = blas()
    harness._run_checks([_reading(blas, []) for _ in range(3)], 2)
    assert blas() == before


def test_pool_restores_the_count_after_a_check_raises(blas):
    before = blas()

    def broken():
        raise ZeroDivisionError("a check failed to run")

    with pytest.raises(ZeroDivisionError):
        harness._run_checks([_reading(blas, []), broken, _reading(blas, [])], 2)
    assert blas() == before


def test_serial_run_reads_one_blas_thread_and_restores_the_count(blas):
    before = blas()
    seen = []
    harness._run_checks([_reading(blas, seen) for _ in range(3)], 1)
    assert seen == [1, 1, 1]
    assert blas() == before


def test_pool_without_openblas_runs_as_before(monkeypatch):
    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    assert harness._openblas_threads() is None
    workers = set()

    def task(i):
        def run():
            workers.add(threading.get_ident())
            return [harness._record("t-%02d" % i, i % 2 == 0)]

        return run

    records = harness._run_checks([task(i) for i in (3, 0, 2, 1)], 2)
    assert [(r["id"], r["status"]) for r in records] == [
        ("t-00", "pass"), ("t-01", "fail"), ("t-02", "pass"), ("t-03", "fail")
    ]
    assert threading.get_ident() not in workers


def test_lookup_without_the_symbols_finds_nothing(monkeypatch):
    monkeypatch.setattr(glob, "glob", lambda pattern: ["libscipy_openblas-fake.so"])
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    assert harness._openblas_threads() is None
