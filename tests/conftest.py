import os
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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
