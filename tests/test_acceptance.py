"""Acceptance battery: every contract criterion at its stated tolerance.

Each test records one verdict line of the form

    CRITERION nn: PASS (detail)

which the terminal summary hook (tests/conftest.py) echoes after the run,
and then asserts the same condition, so the verbose test listing and the
verdict lines agree.  All six suites run twice through the public runner;
the replay pair also feeds the determinism criterion.
"""

import json
import time

import pytest

from quantaequiv.harness import (
    SCHEMA_VERSION,
    SUITE_NAMES,
    default_config,
    emit_tables,
    report_to_json,
    run_suite,
)


def _verdict(log, num, ok, detail):
    line = "CRITERION %02d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail)
    log.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def battery():
    """Two timed runs of every suite under identical default configs."""
    runs = {}
    t_start = time.monotonic()
    for suite in SUITE_NAMES:
        t0 = time.monotonic()
        first = run_suite(default_config(suite))
        t1 = time.monotonic()
        second = run_suite(default_config(suite))
        t2 = time.monotonic()
        runs[suite] = {
            "first": first,
            "second": second,
            "time_first": t1 - t0,
            "time_second": t2 - t1,
        }
    return {"runs": runs, "total_time": time.monotonic() - t_start}


def _checks_by_id(report):
    return {c["id"]: c for c in report["checks"]}


def _all_pass(report, prefix):
    found = [c for c in report["checks"] if c["id"].startswith(prefix)]
    return found and all(c["status"] == "pass" for c in found)


def test_criterion_01_weyl_algebra_laws(battery, criterion_log):
    run = battery["runs"]["weyl-laws"]
    checks = _checks_by_id(run["first"])
    law_ids = [
        "law-01-associativity",
        "law-02-unit",
        "law-03-involution",
        "law-04-zero-fiber-commutative",
    ]
    violations = sum(checks[i]["value"] for i in law_ids)
    ok = (
        all(checks[i]["status"] == "pass" for i in law_ids)
        and violations == 0
        and run["first"]["config"]["sample_count"] >= 1000
        and run["time_first"] < 10.0
    )
    _verdict(
        criterion_log, 1, ok,
        "%d law violations on %d elements, %.1fs"
        % (violations, run["first"]["config"]["sample_count"], run["time_first"]),
    )


def test_criterion_02_poisson_axioms(battery, criterion_log):
    run = battery["runs"]["weyl-laws"]
    check = _checks_by_id(run["first"])["law-05-poisson-axioms"]
    ok = (
        check["status"] == "pass"
        and check["value"] == 0
        and run["time_first"] < 10.0
    )
    _verdict(criterion_log, 2, ok, "%d axiom violations, witness %s" % (check["value"], check["witness"]))


def test_criterion_03_generator_defect_closed_forms(battery, criterion_log):
    run = battery["runs"]["weyl-sdq"]
    checks = _checks_by_id(run["first"])
    vn = checks["sdq-01-von-neumann-closed-form"]
    dirac = checks["sdq-02-dirac-closed-form"]
    vn_order = checks["sdq-03-von-neumann-order"]
    dirac_order = checks["sdq-04-dirac-order"]
    ok = (
        vn["value"] <= 1e-12
        and dirac["value"] <= 1e-12
        and vn_order["value"] <= 0.05
        and dirac_order["value"] <= 0.05
        and run["first"]["config"]["sample_count"] >= 100
        and run["time_first"] < 5.0
    )
    _verdict(
        criterion_log, 3, ok,
        "closed-form gaps %.2e / %.2e, order gaps %.3f / %.3f, %.1fs"
        % (vn["value"], dirac["value"], vn_order["value"], dirac_order["value"],
           run["time_first"]),
    )


def test_criterion_04_equivalence_battery(battery, criterion_log):
    run = battery["runs"]["equivalence-weyl"]
    report = run["first"]
    ok = (
        _all_pass(report, "eq-")
        and report["summary"]["failed"] == 0
        and report["config"]["sample_count"] >= 100
        and run["time_first"] < 30.0
    )
    _verdict(
        criterion_log, 4, ok,
        "6 exact batteries on %d morphisms, %.1fs"
        % (report["config"]["sample_count"], run["time_first"]),
    )


def test_criterion_05_k0_membership_brute_force(battery, criterion_log):
    run = battery["runs"]["weyl-sdq"]
    check = _checks_by_id(run["first"])["sdq-05-k0-brute-force"]
    ok = (
        check["status"] == "pass"
        and check["value"] == 0
        and run["first"]["config"]["sample_count"] >= 100
        and run["time_first"] < 10.0
    )
    _verdict(criterion_log, 5, ok, "%d disagreements on %d sections"
             % (check["value"], run["first"]["config"]["sample_count"]))


def test_criterion_06_moyal_oracle(battery, criterion_log):
    run = battery["runs"]["rieffel-sdq"]
    checks = _checks_by_id(run["first"])
    closed = checks["rsdq-01-closed-form"]
    oracle = checks["rsdq-02-quadrature-oracle"]
    ok = (
        closed["value"] <= 1e-6
        and oracle["value"] <= 1e-6
        and run["first"]["config"]["grid_points"] == 256
        and run["first"]["config"]["hbar"] == 0.1
        and run["time_first"] < 60.0
    )
    _verdict(
        criterion_log, 6, ok,
        "closed form %.2e, quadrature oracle %.2e, %.1fs"
        % (closed["value"], oracle["value"], run["time_first"]),
    )


def test_criterion_07_grid_defect_slopes(battery, criterion_log):
    run = battery["runs"]["rieffel-sdq"]
    checks = _checks_by_id(run["first"])
    vn_slopes = [
        checks["rsdq-03-von-neumann-slope-pair%d" % k]["value"] for k in (1, 2, 3)
    ]
    dirac_slopes = [
        checks["rsdq-04-dirac-slope-pair%d" % k]["value"] for k in (1, 2, 3)
    ]
    schedule = run["first"]["config"]["schedule"]
    ok = (
        all(0.8 <= s <= 1.2 for s in vn_slopes)
        and all(1.8 <= s <= 2.2 for s in dirac_slopes)
        and [float(h) for h in schedule] == [0.4, 0.2, 0.1, 0.05]
        and run["time_first"] < 180.0
    )
    _verdict(
        criterion_log, 7, ok,
        "vn slopes %s, dirac slopes %s"
        % (["%.3f" % s for s in vn_slopes], ["%.3f" % s for s in dirac_slopes]),
    )


def test_criterion_08_morphism_star_defects(battery, criterion_log):
    run = battery["runs"]["rieffel-morphisms"]
    checks = _checks_by_id(run["first"])
    symplectic_ids = [
        "morph-01-star-rot30",
        "morph-01-star-rot90",
        "morph-01-star-rot137",
        "morph-01-star-shear-upper",
        "morph-01-star-shear-lower",
    ]
    sympl = [checks[i]["value"] for i in symplectic_ids]
    control = checks["morph-02-scaling-control"]["value"]
    ok = (
        all(v <= 1e-3 for v in sympl)
        and control >= 1e-1
        and run["time_first"] < 120.0
    )
    _verdict(
        criterion_log, 8, ok,
        "max symplectic defect %.2e, control %.2e, %.1fs"
        % (max(sympl), control, run["time_first"]),
    )


def test_criterion_09_weyl_transform_intertwining(battery, criterion_log):
    run = battery["runs"]["weyl-transform"]
    checks = _checks_by_id(run["first"])
    pair_ids = ["wt-03-intertwining-pair1", "wt-03-intertwining-pair2"]
    truncations = run["first"]["config"]["truncations"]
    ok = truncations == [32, 64, 128] and run["time_first"] < 60.0
    details = []
    for pid in pair_ids:
        check = checks[pid]
        residuals = dict((n, r) for n, r in check["witness"]["residuals"])
        mid = residuals[64]
        monotone = residuals[32] > residuals[64] > residuals[128]
        ok = ok and check["status"] == "pass" and mid <= 1e-3 and monotone
        details.append("%.2e" % mid)
    _verdict(
        criterion_log, 9, ok,
        "residuals at 64: %s, monotone over 32/64/128, %.1fs"
        % (", ".join(details), run["time_first"]),
    )


def test_criterion_10_replay_determinism(battery, tmp_path, criterion_log):
    mismatched = []
    for suite in SUITE_NAMES:
        run = battery["runs"][suite]
        a = dict(run["first"])
        b = dict(run["second"])
        ts_a = a.pop("timestamp")
        ts_b = b.pop("timestamp")
        assert ts_a and ts_b
        if report_to_json(a).encode() != report_to_json(b).encode():
            mismatched.append(suite)
        dir_a = tmp_path / suite / "a"
        dir_b = tmp_path / suite / "b"
        paths_a = emit_tables(run["first"], str(dir_a), "csv")
        paths_b = emit_tables(run["second"], str(dir_b), "csv")
        blobs_a = [open(p, "rb").read() for p in paths_a]
        blobs_b = [open(p, "rb").read() for p in paths_b]
        if blobs_a != blobs_b:
            mismatched.append(suite + "-tables")
    total = battery["total_time"]
    ok = not mismatched and total < 600.0
    _verdict(
        criterion_log, 10, ok,
        "6 suites replayed byte-identically modulo timestamp, battery %.0fs"
        % total if ok else "mismatches: %s, battery %.0fs" % (mismatched, total),
    )


def test_all_suites_fully_green(battery):
    summaries = {
        suite: battery["runs"][suite]["first"]["summary"] for suite in SUITE_NAMES
    }
    assert all(s["failed"] == 0 for s in summaries.values()), summaries
    assert all(s["saturated"] == 0 for s in summaries.values()), summaries


def test_reports_are_valid_json(battery):
    for suite in SUITE_NAMES:
        loaded = json.loads(report_to_json(battery["runs"][suite]["first"]))
        assert loaded["schema_version"] == SCHEMA_VERSION == 2
        assert loaded["suite"] == suite
