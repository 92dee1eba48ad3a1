"""The BLAS thread policy of the check runner: one OpenBLAS thread while the
checks run, for one worker as for a pool, the previous count back
afterwards, and no change when numpy's OpenBLAS cannot be found."""

import ctypes
import glob
import threading

import pytest

from quantaequiv import harness


@pytest.fixture
def blas():
    found = harness._openblas_threads()
    if found is None:
        pytest.skip("numpy's bundled OpenBLAS is not found in this install")
    get, put = found
    before = get()
    put(2)  # a count the pool must lower and then put back (clamped on 1 CPU)
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
