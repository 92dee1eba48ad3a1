"""Tests of the benchmark's own code: the checker, the printed names, the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

None of them runs a suite; the checker is fed small hand-built outputs.
"""

import copy
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HS = [0.4, 0.2, 0.1, 0.05]


# --- hand-built outputs that pass every check ------------------------------------


def _rows(order, scale=0.3):
    return [[h, scale * h**order] for h in HS]


def _table(rows):
    lines = ["hbar,defect,slope_window"] + ["%.12g,%.17g," % (h, d) for h, d in rows]
    return "\n".join(lines) + "\n"


def _record(check_id, value=0, **extra):
    rec = {"id": check_id, "status": "pass", "value": value}
    rec.update(extra)
    return rec


def _valid_records(suite):
    ids = workloads.EXPECTED_CHECKS[suite]
    if suite in ("weyl-laws", "equivalence-weyl"):
        return [_record(c) for c in ids]
    if suite == "weyl-sdq":
        orders = {"sdq-01": 1.0, "sdq-02": 2.0}
        return [
            _record(c, 0, witness={"rows": _rows(orders[c[:6]])}) if c[:6] in orders
            else _record(c)
            for c in ids
        ]
    if suite == "rieffel-sdq":
        out = []
        for c in ids:
            order = {"rsdq-03": 1.0, "rsdq-04": 2.0}.get(c[:7])
            if order is None:
                out.append(_record(c, 1e-9))
            else:
                out.append(_record(c, checks.fit_slope(_rows(order)),
                                   witness={"rows": _rows(order), "target": order}))
        return out
    if suite == "weyl-transform":
        residuals = [[32, 1e-2], [64, 1e-4], [128, 1e-6]]
        return [
            _record(c, 1e-4, witness={"residuals": residuals}) if c.startswith("wt-03")
            else _record(c, 1e-8)
            for c in ids
        ]
    raise AssertionError(suite)


def _report_text(suite, records, timestamp="2026-01-01T00:00:00+00:00"):
    summary = {
        "total": len(records),
        "passed": sum(r["status"] == "pass" for r in records),
        "failed": sum(r["status"] == "fail" for r in records),
        "saturated": sum(r["status"] == "saturated" for r in records),
    }
    report = {"suite": suite, "checks": records, "summary": summary, "timestamp": timestamp}
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _tables(records):
    return {
        r["id"]: _table(r["witness"]["rows"])
        for r in records
        if "rows" in r.get("witness", {})
    }


def _failures(suite, records, tables=None):
    ops = checks.check_suite(
        suite, 0, _report_text(suite, records), _tables(records) if tables is None else tables
    )
    return [name for name, ok, _ in ops if not ok]


@pytest.mark.parametrize("suite", workloads.all_suites())
def test_hand_built_outputs_pass(suite):
    assert _failures(suite, _valid_records(suite)) == []


@pytest.mark.parametrize("suite", workloads.all_suites())
def test_operation_count_does_not_depend_on_the_report(suite):
    good = checks.check_suite(suite, 0, _report_text(suite, _valid_records(suite)), {})
    missing = checks.check_suite(suite, 1, None, {})
    assert len(good) == len(missing)
    assert all(not ok for _, ok, _ in missing)


# --- doctored outputs are rejected ---------------------------------------------


def test_rejects_a_fail_record():
    records = _valid_records("weyl-laws")
    records[0].update(status="fail", value=3)
    assert _failures("weyl-laws", records) == [
        "weyl-laws.law-01-associativity.status",
        "weyl-laws.law-01-associativity.violations",
    ]


def test_rejects_a_saturated_study():
    records = _valid_records("rieffel-sdq")
    study = records[2]
    assert study["id"] == "rsdq-03-von-neumann-slope-pair1"
    study.update(status="saturated", value=None)
    study["witness"]["rows"][-1][1] = 0.0
    failures = _failures("rieffel-sdq", records)
    assert "rieffel-sdq.rsdq-03-von-neumann-slope-pair1.status" in failures
    assert "rieffel-sdq.rsdq-03-von-neumann-slope-pair1.refit-slope" in failures


def test_rejects_a_slope_out_of_band():
    records = _valid_records("rieffel-sdq")
    study = records[5]
    assert study["id"] == "rsdq-04-dirac-slope-pair1"
    study["witness"]["rows"] = _rows(1.5)
    study["value"] = checks.fit_slope(_rows(1.5))  # the report agrees with its rows
    assert _failures("rieffel-sdq", records) == [
        "rieffel-sdq.rsdq-04-dirac-slope-pair1.refit-slope"
    ]


def test_rejects_a_reported_slope_its_rows_do_not_give():
    records = _valid_records("rieffel-sdq")
    records[3]["value"] += 1e-3
    assert _failures("rieffel-sdq", records) == [
        "rieffel-sdq.rsdq-03-von-neumann-slope-pair2.refit-slope"
    ]


def test_rejects_a_table_that_differs_from_the_report():
    records = _valid_records("weyl-sdq")
    tables = _tables(records)
    tables["sdq-02-dirac-closed-form"] = _table(_rows(2.0, scale=0.31))
    assert _failures("weyl-sdq", records, tables) == [
        "weyl-sdq.sdq-02-dirac-closed-form.envelope-slope"
    ]


def test_rejects_a_non_monotone_residual_row():
    records = _valid_records("weyl-transform")
    records[3]["witness"] = {"residuals": [[32, 1e-2], [64, 1e-4], [128, 2e-4]]}
    assert _failures("weyl-transform", records) == [
        "weyl-transform.wt-03-intertwining-pair2.residuals-decrease"
    ]


def test_rejects_a_missing_check_id():
    records = _valid_records("equivalence-weyl")[:-1]
    assert _failures("equivalence-weyl", records) == [
        "equivalence-weyl.check-ids",
        "equivalence-weyl.eq-06-arrow-round-trips.status",
        "equivalence-weyl.eq-06-arrow-round-trips.violations",
    ]


def test_replay_ignores_only_the_timestamp():
    records = _valid_records("weyl-sdq")
    first = (_report_text("weyl-sdq", records), _tables(records))
    later = (_report_text("weyl-sdq", records, "2026-01-02T00:00:00+00:00"), _tables(records))
    assert checks.check_replay("weyl-sdq", first, later)[1]

    drifted = copy.deepcopy(records)
    drifted[0]["witness"]["rows"][0][1] *= 1 + 1e-12
    changed = (_report_text("weyl-sdq", drifted), _tables(records))
    assert not checks.check_replay("weyl-sdq", first, changed)[1]

    tables = _tables(records)
    tables["sdq-01-von-neumann-closed-form"] += "\n"
    assert not checks.check_replay("weyl-sdq", first, (first[0], tables))[1]


def test_fit_slope_is_exact_on_a_power_law():
    assert math.isclose(checks.fit_slope(_rows(1.7)), 1.7, rel_tol=1e-12)


# --- printed metric names --------------------------------------------------------


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _fake_worker(root, workload, seed, out_dir, deadline, trace=False, setup_only=False):
    os.makedirs(out_dir)
    result = {"ready": 0.0, "setup_s": 0.5}
    if not setup_only:
        result["suites"] = {
            s: {"exit_code": 0, "wall_s": 1.0, "cpu_s": 1.5}
            for s in workloads.WORKLOADS[workload]
        }
        result["peak_rss_kb"] = 65536
        result["controls"] = [["control.fake", True, "raised"]]
    if trace:
        result["layers"] = {
            name: 1 for name, _ in workloads.per_layer_metrics()
            if not name.startswith(("harness.", "trace."))
        }
        result["spans"] = 0
    return result


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_printed_metric_names_match_benchmark_json(
    monkeypatch, tmp_path, capsys, workload, trace, section
):
    monkeypatch.setattr(run, "_run_worker", _fake_worker)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.chdir(ROOT)
    argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == declared
    assert list(printed["metrics"]) == [m["name"] for m in _benchmark_json()[section]]


def test_benchmark_json_workloads_are_the_benchmarks():
    assert [w["name"] for w in _benchmark_json()["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""


# --- the traced run's wrappers -----------------------------------------------------


def _bindings():
    from quantaequiv import harness, rieffel, sampling, symplectic, weyl_algebra, weyl_functors
    from quantaequiv.category import FunctorSpec

    return {
        "weyl_algebra.multiply": weyl_algebra.multiply,
        "weyl_functors.multiply": weyl_functors.multiply,
        "harness.multiply": harness.multiply,
        "rieffel.moyal_product": rieffel.moyal_product,
        "harness.moyal_product": harness.moyal_product,
        "symplectic.is_symplectic_map": symplectic.is_symplectic_map,
        "weyl_functors.is_symplectic_map": weyl_functors.is_symplectic_map,
        "sampling.is_symplectic_map": sampling.is_symplectic_map,
        "CoeffExpr.__mul__": vars(weyl_algebra.CoeffExpr)["__mul__"],
        "CoeffExpr.__rmul__": vars(weyl_algebra.CoeffExpr)["__rmul__"],
        "FunctorSpec.apply": vars(FunctorSpec)["apply"],
    }


def test_tracer_wraps_every_binding_and_restores_them():
    from quantaequiv import weyl_algebra
    from quantaequiv.symplectic import standard_space

    before = _bindings()
    tracer = Tracer("quantaequiv", workloads.TRACED, workloads.AGGREGATE_ONLY)
    with tracer:
        during = _bindings()
        for name, original in before.items():
            assert during[name] is not original, name
            assert during[name].__wrapped__ is original, name
        assert during["weyl_functors.multiply"] is during["harness.multiply"]
        assert during["CoeffExpr.__rmul__"] is during["CoeffExpr.__mul__"]

        space = standard_space(1)
        q = weyl_algebra.weyl_generator(space, (1, 0))
        p = weyl_algebra.weyl_generator(space, (0, 1))
        weyl_algebra.multiply(q, p)
    assert _bindings() == before
    calls, inclusive, own = tracer.totals()["weyl_algebra.multiply"]
    assert calls == 1 and inclusive >= own >= 0.0


def test_tracer_restores_the_originals_when_the_run_raises():
    from quantaequiv import weyl_algebra

    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer("quantaequiv", workloads.TRACED):
            assert weyl_algebra.multiply is not before["weyl_algebra.multiply"]
            raise RuntimeError("suite crashed")
    assert _bindings() == before


def test_self_time_excludes_traced_children(tmp_path):
    from quantaequiv import rational_linalg as rl

    tracer = Tracer(
        "quantaequiv",
        ("rational_linalg.mat_mul", "rational_linalg.dot"),
        aggregate_only=("rational_linalg.dot",),
    )
    with tracer:
        m = rl.identity(6)
        for _ in range(50):
            rl.mat_mul(m, m)
    totals = tracer.totals()
    mm_calls, mm_incl, mm_self = totals["rational_linalg.mat_mul"]
    dot_calls, dot_incl, _ = totals["rational_linalg.dot"]
    assert (mm_calls, dot_calls) == (50, 50 * 36)
    assert math.isclose(mm_self, mm_incl - dot_incl, rel_tol=1e-9, abs_tol=1e-12)
    path = tmp_path / "spans.json"
    assert tracer.write_spans(str(path)) == 50
    spans = json.loads(path.read_text())["spans"]
    assert {s[3] for s in spans} == {"rational_linalg.mat_mul"}
