import os
import tracemalloc
from pathlib import Path

import pytest


def pytest_configure(config):
    config._criterion_lines = []


@pytest.fixture(scope="session")
def criterion_log(request):
    """Shared sink for acceptance verdict lines, echoed after the run."""
    return request.config._criterion_lines


@pytest.fixture(scope="session")
def fresh_env():
    """env(**variables): the environment for a fresh interpreter that imports
    the quantaequiv under test, its ``src`` first on PYTHONPATH."""
    import quantaequiv

    src = str(Path(quantaequiv.__file__).resolve().parents[1])

    def env(**variables):
        out = dict(os.environ, **variables)
        out["PYTHONPATH"] = os.pathsep.join(filter(None, [src, out.get("PYTHONPATH")]))
        return out

    return env


@pytest.fixture(scope="session")
def traced_mib():
    """traced_mib(fn): run fn() under tracemalloc and return (peak, held) in
    MiB, held being what is still allocated when fn returns.  Tracing stops
    even when fn raises."""

    def measure(fn):
        tracemalloc.start()
        try:
            fn()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2**20, held / 2**20

    return measure


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
