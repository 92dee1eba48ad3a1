"""tools/replay_diff.py's comparison of two runs' files, on hand-made reports."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "replay_diff.py"
_spec = importlib.util.spec_from_file_location("replay_diff", TOOL)
replay_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay_diff)


def _report(directory, environment, value=0.5, timestamp="2026-01-01T00:00:00+00:00"):
    directory.mkdir()
    report = {
        "suite": "weyl-sdq",
        "environment": environment,
        "timestamp": timestamp,
        "checks": [{"id": "sdq-04-dirac-order", "status": "pass", "value": value}],
    }
    path = directory / "weyl-sdq.report.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def test_a_field_outside_checks_is_printed_old_and_new(tmp_path, capsys):
    _report(tmp_path / "old", {"numpy": "2.4.6", "python": "3.11.7"})
    _report(tmp_path / "new", {"python": "3.11.7"}, timestamp="2026-01-02T00:00:00+00:00")
    assert replay_diff.compare(tmp_path / "old", tmp_path / "new", "pool") == 1
    out = capsys.readouterr().out
    assert "pool: weyl-sdq.report.json differs" in out
    assert "    environment: {'numpy': '2.4.6', 'python': '3.11.7'} -> {'python': '3.11.7'}" in out
    assert "timestamp" not in out and "sdq-04" not in out


def test_a_moved_value_is_printed_and_the_timestamp_is_not(tmp_path, capsys):
    _report(tmp_path / "old", {"python": "3.11.7"})
    _report(tmp_path / "new", {"python": "3.11.7"}, value=0.25,
            timestamp="2026-01-02T00:00:00+00:00")
    assert replay_diff.compare(tmp_path / "old", tmp_path / "new", "pool") == 1
    out = capsys.readouterr().out
    assert "    sdq-04-dirac-order: 0.5 -> 0.25" in out
    assert "environment" not in out and "timestamp" not in out
    _report(tmp_path / "same", {"python": "3.11.7"}, timestamp="2026-01-03T00:00:00+00:00")
    assert replay_diff.compare(tmp_path / "old", tmp_path / "same", "pool") == 0
