"""Config validation, suite runner plumbing, table emission, CLI exit codes."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantaequiv import cli
from quantaequiv import harness, rieffel
from quantaequiv.harness import (
    SCHEMA_VERSION,
    SUITE_NAMES,
    ConfigError,
    default_config,
    emit_tables,
    load_config,
    report_to_json,
    run_suite,
    validate_config,
)


# json.load raises JSONDecodeError, RecursionError, UnicodeDecodeError and
# ValueError on these
UNREADABLE_CONFIGS = (
    b"{not json",
    b"[" * 100000,
    b'{"suite": "weyl-laws", "seed": 1\xff}',
    b'{"suite": "weyl-laws", "seed": %s}' % (b"1" * 5000),
)
UNREADABLE_CONFIG_IDS = ("not-json", "nested-too-deep", "not-utf8", "int-past-digit-limit")


# JSON values at and past the limits of harness._FIELDS: ints at and beside
# each bound, ints past the float range and past the digit limit of repr,
# floats with NaN and the infinities, booleans, fraction strings with huge
# exponents, and lists of every length up to six
_BOUNDS = sorted({
    bound + step
    for _, low, high, _ in harness._FIELDS.values()
    for bound in (low, high) if bound is not None
    for step in (-1, 0, 1)
})
_SCALARS = st.one_of(
    st.sampled_from(_BOUNDS),
    st.integers(),
    st.sampled_from([10**400, -(10**400), 10**5000]),
    st.floats(),
    st.floats(min_value=0.0, max_value=1e3),
    st.booleans(),
    st.none(),
    st.sampled_from(["1/2", "2/5", "1e400", "1e-400", "1e999999999", "1e-999999999",
                     "-1e999999999", "0e999999999", "1E+999_999_999", "1/0", "one", ""]),
)
_NEAR_LIMITS = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=6),
    st.lists(st.integers(15, 1025), max_size=6, unique=True).map(sorted),
    st.lists(st.floats(min_value=0.0), max_size=6, unique=True).map(sorted).map(reversed).map(list),
    st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2),
)


class TestConfigValidation:
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_defaults_are_valid(self, suite):
        validate_config(default_config(suite))

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"suite": "nope", "seed": 1})

    def test_missing_seed_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"suite": "weyl-laws"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"suite": "weyl-laws", "seed": 1, "bogus": True})

    def test_field_table_declares_exactly_the_suite_fields(self):
        suite_fields = set().union(*(fields for _, fields in harness._SUITES.values()))
        assert set(harness._FIELDS) == {"schema_version", "seed"} | suite_fields

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_validation_returns_or_refuses_near_the_limits(self, data):
        # no suite runs: a config that passes must give finite floats and a grid
        suite = data.draw(st.sampled_from(SUITE_NAMES))
        fields = ["schema_version", "seed", *harness._SUITES[suite][1]]
        overrides = data.draw(st.dictionaries(st.sampled_from(fields), _NEAR_LIMITS, max_size=2))
        cfg = dict(default_config(suite), **overrides)
        try:
            validate_config(cfg)
        except ConfigError:
            return
        resolved = harness.resolve_config(cfg)
        numbers = [resolved[f] for f in resolved if f != "suite" and harness._FIELDS[f][3] is None]
        numbers += resolved.get("truncations", [])
        schedule = [float(v) for v in harness._parse_schedule(resolved.get("schedule", []))]
        assert all(math.isfinite(float(v)) for v in numbers + schedule)
        assert all(v > 0 for v in schedule)
        if "grid_points" in resolved:
            harness._grid(resolved)

    def test_increasing_schedule_rejected(self):
        cfg = default_config("rieffel-sdq")
        cfg["schedule"] = [0.05, 0.1, 0.2, 0.4]
        with pytest.raises(ConfigError, match="decreasing"):
            validate_config(cfg)

    def test_flat_schedule_rejected(self):
        cfg = default_config("rieffel-sdq")
        cfg["schedule"] = [0.2, 0.2, 0.1, 0.05]
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_nonpositive_schedule_rejected(self):
        cfg = default_config("rieffel-sdq")
        cfg["schedule"] = [0.4, 0.2, 0.1, 0.0]
        with pytest.raises(ConfigError, match="positive"):
            validate_config(cfg)

    def test_fraction_strings_accepted(self):
        cfg = default_config("weyl-sdq")
        cfg["schedule"] = ["1/2", "1/4", "1/8", "1/16"]
        validate_config(cfg)

    def test_weyl_sdq_schedule_above_one_rejected(self):
        # the exact fibers are hbar in (0, 1]; "1" itself is one of them
        cfg = default_config("weyl-sdq")
        validate_config(dict(cfg, schedule=["1", "1/2", "1/4", "1/8"]))
        with pytest.raises(ConfigError, match="weyl-sdq schedule entry '2' is above 1"):
            validate_config(dict(cfg, schedule=["2", "1", "1/2", "1/4"]))
        with pytest.raises(ConfigError, match="entry 1.5 is above 1"):
            validate_config(dict(cfg, schedule=[1.5, 0.5, 0.25, 0.125]))

    def test_rieffel_sdq_reads_fraction_strings(self, monkeypatch):
        # the suite's checks are built from the config, and the study gets
        # the schedule as floats; the products themselves are not run
        schedules = []

        def recorded_study(defect_fn, f, g, schedule):
            schedules.append(schedule)
            return [{"rows": [], "slope": 1.0, "residual": 0.0, "saturated": False}] * 2

        monkeypatch.setattr(harness, "convergence_study", recorded_study)
        cfg = dict(default_config("rieffel-sdq"), schedule=["2/5", "1/5", "1/10", "1/20"])
        checks = harness._suite_rieffel_sdq(harness.resolve_config(cfg))
        assert len(checks) == 5
        checks[2]()
        assert schedules == [(0.4, 0.2, 0.1, 0.05)]

    def test_unreadable_fraction_rejected(self):
        cfg = default_config("weyl-sdq")
        cfg["schedule"] = ["1/2", "1/4", "1/8", "one"]
        with pytest.raises(ConfigError):
            validate_config(cfg)

    @pytest.mark.parametrize(
        "entry", ["1e400", 10**400, "1e999999999"], ids=["string", "integer", "1e999999999"]
    )
    def test_overflowing_schedule_entry_rejected(self, entry):
        # "1e999999999" is refused before Fraction builds ten to that power
        cfg = dict(default_config("rieffel-sdq"), schedule=[entry, "1", "1/2", "1/4"])
        with pytest.raises(ConfigError, match="unreadable schedule entry: .*too large"):
            validate_config(cfg)

    @pytest.mark.parametrize("suite", ["weyl-sdq", "rieffel-sdq"])
    def test_underflowing_schedule_entry_rejected_as_too_small(self, suite):
        # 1e-400 is a positive exact fiber whose float is 0.0
        for entry in ("1e-400", "1e-999999999"):
            cfg = dict(default_config(suite), schedule=["1/2", "1/4", "1/8", entry])
            with pytest.raises(ConfigError, match="'%s' is too small for the float table rows" % entry):
                validate_config(cfg)

    @pytest.mark.parametrize(
        "suite, field, value",
        [
            ("weyl-laws", "hbar", 0.5),
            ("weyl-laws", "truncations", [16, 32]),
            ("weyl-sdq", "max_pairs", 10),
            ("equivalence-weyl", "schedule", ["1/2", "1/4", "1/8", "1/16"]),
            ("rieffel-sdq", "sample_count", 10),
            ("rieffel-morphisms", "schedule", [0.4, 0.2, 0.1, 0.05]),
            ("weyl-transform", "schedule", [0.4, 0.2, 0.1, 0.05]),
        ],
    )
    def test_field_the_suite_does_not_read_rejected(self, suite, field, value):
        cfg = dict(default_config(suite), **{field: value})
        with pytest.raises(
            ConfigError,
            match="^config schema violation: %s: suite '%s' takes no such field$" % (field, suite),
        ):
            validate_config(cfg)

    @pytest.mark.parametrize("suite", ["rieffel-sdq", "rieffel-morphisms", "weyl-transform"])
    @pytest.mark.parametrize("points", [100, 48])
    def test_grid_points_not_a_power_of_two_rejected(self, suite, points):
        with pytest.raises(ConfigError, match="^GridError: points_per_axis must be a power of two"):
            validate_config({"suite": suite, "seed": 1, "grid_points": points})

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_default_config_lists_are_fresh(self, suite):
        expected = json.loads(json.dumps(default_config(suite)))
        for value in default_config(suite).values():
            if isinstance(value, list):
                value.clear()
        assert default_config(suite) == expected

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_builder_reads_every_field_its_entry_declares(self, suite):
        # build the suite's tasks from a config that records its reads;
        # the tasks themselves are not run
        reads = set()

        class RecordingConfig(dict):
            def __getitem__(self, field):
                reads.add(field)
                return dict.__getitem__(self, field)

        build_checks, fields = harness._SUITES[suite]
        build_checks(RecordingConfig(harness.resolve_config(default_config(suite))))
        assert reads - {"seed"} == set(fields)

    @pytest.mark.parametrize(
        "suite, field, value",
        [
            ("weyl-laws", "seed", True),
            ("weyl-laws", "schema_version", 1),  # a stale version
            ("weyl-laws", "seed", 2**64),
            ("rieffel-sdq", "grid_extent", 0),
            ("rieffel-sdq", "hbar", -0.1),
            ("weyl-transform", "truncations", [8, 32]),
            ("rieffel-sdq", "schedule", [0.4, 0.2, 0.1]),
            ("rieffel-sdq", "grid_points", 4096),  # a 2048**2 complex grid is 64 MiB
            ("weyl-transform", "truncations", [32, 2048]),
            ("weyl-laws", "sample_count", 10**4 + 1),
            ("equivalence-weyl", "max_pairs", 10**5),
            ("weyl-transform", "truncations", list(range(16, 50, 2))),  # 17 entries
            ("weyl-sdq", "schedule", ["1/%d" % 2**k for k in range(1, 66)]),  # 65 entries
            ("rieffel-sdq", "schedule", [0.4 / 2**k for k in range(65)]),
        ],
    )
    def test_out_of_bounds_field_rejected(self, suite, field, value):
        cfg = dict(default_config(suite), **{field: value})
        with pytest.raises(ConfigError, match="^config schema violation: %s" % field):
            validate_config(cfg)

    @pytest.mark.parametrize(
        "suite, field, value",
        [
            ("rieffel-sdq", "hbar", float("nan")),
            ("weyl-transform", "grid_extent", float("inf")),
            ("rieffel-sdq", "schedule", [float("inf"), 0.2, 0.1, 0.05]),
            # float(10**400) raises OverflowError
            pytest.param("rieffel-sdq", "hbar", 10**400, id="rieffel-sdq-hbar-10**400"),
            pytest.param("rieffel-morphisms", "grid_extent", -(10**400),
                         id="rieffel-morphisms-grid_extent--10**400"),
        ],
    )
    def test_non_finite_number_rejected(self, suite, field, value):
        # json.load reads NaN and Infinity; the run must not start on them
        cfg = dict(default_config(suite), **{field: value})
        with pytest.raises(ConfigError, match="%s.*not a finite number" % field):
            validate_config(cfg)

    @pytest.mark.parametrize(
        "suite, field, value",
        [
            ("rieffel-sdq", "grid_points", 2048),
            ("weyl-transform", "truncations", [32, 1024]),
            ("weyl-transform", "truncations", list(range(16, 48, 2))),  # 16 entries
            ("rieffel-sdq", "schedule", [0.4 / 2**k for k in range(64)]),
            ("weyl-sdq", "sample_count", 10**4),
            ("equivalence-weyl", "max_pairs", 10**4),
        ],
    )
    def test_grid_and_truncation_maxima_accepted(self, suite, field, value):
        validate_config(dict(default_config(suite), **{field: value}))

    def test_truncations_must_increase(self):
        cfg = default_config("weyl-transform")
        cfg["truncations"] = [64, 32, 128]
        with pytest.raises(ConfigError, match="increasing"):
            validate_config(cfg)

    def test_load_config_round_trip(self, tmp_path):
        cfg = default_config("weyl-sdq")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert load_config(str(path)) == cfg

    def test_load_config_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        for content in UNREADABLE_CONFIGS:
            path.write_bytes(content)
            with pytest.raises(ConfigError, match="^cannot read config "):
                load_config(str(path))

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))


@pytest.fixture(scope="module")
def sdq_report():
    return run_suite(default_config("weyl-sdq"))


@pytest.fixture(scope="module")
def rsdq_report():
    return run_suite(default_config("rieffel-sdq"))


class TestRunSuite:
    def test_report_shape(self, sdq_report):
        assert sdq_report["schema_version"] == SCHEMA_VERSION == 2
        assert sdq_report["suite"] == "weyl-sdq"
        assert sdq_report["summary"]["failed"] == 0
        ids = [c["id"] for c in sdq_report["checks"]]
        assert ids == sorted(ids)
        for check in sdq_report["checks"]:
            assert check["status"] in ("pass", "fail", "saturated")

    def test_report_is_json_serializable(self, sdq_report):
        json.loads(report_to_json(sdq_report))

    def test_failures_carry_witnesses(self, sdq_report):
        for check in sdq_report["checks"]:
            if check["status"] == "fail":
                assert check.get("witness") is not None

    def test_failing_count_checks_name_their_first_failure(self, monkeypatch):
        monkeypatch.setattr(harness, "weyl_from_json", lambda data: None)
        monkeypatch.setattr(harness, "quantize_morphism", lambda m: None)
        monkeypatch.setattr(harness, "classical_limit_morphism", lambda q: None)
        monkeypatch.setattr(harness, "_limit_magnitude", lambda coeff: 1.0)
        monkeypatch.setattr(harness, "rieffel_condition_check", lambda element, schedule: False)
        checks = {}
        for suite, fields in (("weyl-laws", {"sample_count": 4}),
                              ("equivalence-weyl", {"sample_count": 1, "max_pairs": 5}),
                              ("weyl-sdq", {"sample_count": 4})):
            report = run_suite(dict(default_config(suite), **fields))
            checks.update((c["id"], c) for c in report["checks"])
        assert checks["law-06-serialization"]["value"] == 100
        assert checks["law-06-serialization"]["witness"] == {"index": 0}
        assert checks["eq-06-arrow-round-trips"]["witness"] == {"arrow": "m0"}
        # every section reads as nonvanishing; the even ones are in K0
        assert checks["sdq-05-k0-brute-force"]["value"] == 2
        assert checks["sdq-05-k0-brute-force"]["witness"] == {
            "index": 0, "claimed": True, "measured": False}
        assert checks["sdq-06-rieffel-constancy"]["witness"] == {"index": 0}
        for check_id in ("law-06-serialization", "eq-06-arrow-round-trips",
                         "sdq-05-k0-brute-force", "sdq-06-rieffel-constancy"):
            assert checks[check_id]["status"] == "fail"
            assert checks[check_id]["tolerance"] == 0
        assert checks["law-01-associativity"] == {
            "id": "law-01-associativity", "status": "pass", "value": 0, "tolerance": 0}

    def test_deterministic_modulo_timestamp(self, sdq_report):
        again = run_suite(default_config("weyl-sdq"))
        a = dict(sdq_report)
        b = dict(again)
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b

    def test_seed_changes_measurements(self):
        cfg = default_config("weyl-sdq")
        cfg["seed"] = 7
        other = run_suite(cfg)
        assert other["seed"] == 7
        # closed-form checks still pass under any seed
        assert other["summary"]["failed"] == 0

    def test_thread_cap_does_not_change_results(self, sdq_report, monkeypatch):
        monkeypatch.setenv("QUANTAEQUIV_THREADS", "1")
        serial = run_suite(default_config("weyl-sdq"))
        assert serial["checks"] == sdq_report["checks"]

    def test_thread_cap_does_not_change_rieffel_results(self, rsdq_report, monkeypatch):
        monkeypatch.setenv("QUANTAEQUIV_THREADS", "1")
        serial = run_suite(default_config("rieffel-sdq"))
        assert serial["checks"] == rsdq_report["checks"]

    def test_rieffel_sdq_makes_one_product_per_pair_and_hbar(self, rsdq_report, monkeypatch):
        # closed form 1, oracle 1, and one f*g per pair and hbar: 3 x 4 twist
        # stages; each pair's schedule shares one pair stage: 1 + 1 + 3.
        # GridFunctions: the closed form's operands, product and reference,
        # the oracle check's operands and product, each study's operands
        pairs, twists, built = [], [], []
        pair_stage, twist_stage = rieffel._pair_stage, rieffel._twist_stage
        own = rieffel.GridFunction._own

        def counted_own(self, grid, samples):
            built.append(grid)
            own(self, grid, samples)

        def counted_pair(*args):
            pairs.append(args[:2])
            return pair_stage(*args)

        def counted_twist(pair, hbar):
            twists.append(hbar)
            return twist_stage(pair, hbar)

        monkeypatch.setattr(rieffel, "_pair_stage", counted_pair)
        monkeypatch.setattr(rieffel, "_twist_stage", counted_twist)
        monkeypatch.setattr(rieffel.GridFunction, "_own", counted_own)
        report = run_suite(default_config("rieffel-sdq"))
        assert len(twists) == 14
        assert len(pairs) == 5
        assert len(built) == 4 + 3 + 3 * 2
        assert report["checks"] == rsdq_report["checks"]

    def test_rieffel_morphisms_makes_one_product_per_map_and_one_shared(self, monkeypatch):
        # f*g once for the six maps, then one product of the pulled-back
        # operands per map: 7 twist stages, where each map making its own
        # f*g took 12
        twists = []
        twist_stage = rieffel._twist_stage

        def counted_twist(pair, hbar):
            twists.append(hbar)
            return twist_stage(pair, hbar)

        monkeypatch.setattr(rieffel, "_twist_stage", counted_twist)
        report = run_suite(default_config("rieffel-morphisms"))
        assert twists == [default_config("rieffel-morphisms")["hbar"]] * 7
        assert report["summary"] == {"total": 7, "passed": 7, "failed": 0, "saturated": 0}

    def test_saturated_weyl_sdq_study_is_saturated(self, monkeypatch):
        # a defect below the saturation floor leaves no slope to compare
        monkeypatch.setattr(harness, "dirac_defect", lambda space, f, g, h: 0.0)
        report = run_suite(dict(default_config("weyl-sdq"), sample_count=4))
        checks = {c["id"]: c for c in report["checks"]}
        assert checks["sdq-04-dirac-order"]["status"] == "saturated"
        assert "value" not in checks["sdq-04-dirac-order"]
        assert checks["sdq-03-von-neumann-order"]["status"] == "pass"
        assert checks["sdq-02-dirac-closed-form"]["status"] == "fail"

    def test_weyl_transform_tasks_build_symbols_only_as_wide_as_they_read(self, monkeypatch):
        # the window checks read a 10 x 10 corner; each wt-03 pair streams its
        # three operands from one symbol at the largest truncation
        class_symbols = rieffel._class_symbols
        widths = []

        def recorded(members, phi, fval, n_trunc):
            widths.append(n_trunc)
            return class_symbols(members, phi, fval, n_trunc)

        monkeypatch.setattr(rieffel, "_class_symbols", recorded)
        build_checks, _ = harness._SUITES["weyl-transform"]
        per_task = []
        for task in build_checks(default_config("weyl-transform")):
            widths.clear()
            records = task()
            assert all(r["status"] == "pass" for r in records)
            per_task.append(list(widths))
        assert per_task == [[10], [10], [128] * 3, [128] * 3]

    def test_equivalence_checks_build_no_entry_for_a_passing_law(self, monkeypatch):
        # at the default seed every law holds: each check returns [] and no
        # entry is made
        from quantaequiv import category

        returned, entries = [], []

        def recorded(check):
            def run(*args):
                returned.append(check(*args))
                return returned[-1]
            return run

        def counted(*args):
            entries.append(args)
            return entry(*args)

        for name in ("check_category_laws", "check_functor_laws", "check_equivalence"):
            monkeypatch.setattr(harness, name, recorded(getattr(harness, name)))
        entry = category._entry
        monkeypatch.setattr(category, "_entry", counted)
        build_checks, _ = harness._SUITES["equivalence-weyl"]
        (task,) = build_checks(default_config("equivalence-weyl"))
        assert all(r["status"] == "pass" for r in task())
        assert returned == [[]] * 5 and entries == []

    def test_grid_suites_sample_without_coordinate_meshes(self, monkeypatch):
        # from_callable and gaussian read the two axes; no p x p coordinate mesh is built
        def no_mesh(*args, **kwargs):
            raise AssertionError("np.meshgrid called")

        monkeypatch.setattr(np, "meshgrid", no_mesh)
        build_checks, _ = harness._SUITES["weyl-transform"]
        for task in build_checks(default_config("weyl-transform")):
            assert all(r["status"] == "pass" for r in task())

    def test_weyl_laws_run_as_one_task(self):
        # the exact law checks hold the GIL: one task keeps them off the pool
        build_checks, _ = harness._SUITES["weyl-laws"]
        tasks = build_checks(default_config("weyl-laws"))
        assert len(tasks) == 1

    def test_environment_stamp_fields_of_an_exact_suite(self, sdq_report):
        # numpy is loaded in this process, but an exact suite runs no numpy code
        assert set(sdq_report["environment"]) == {"python", "platform", "machine"}

    def test_environment_stamp_fields_of_a_grid_suite(self, rsdq_report):
        assert set(rsdq_report["environment"]) == {"numpy", "python", "platform", "machine"}


class TestEmitTables:
    def test_csv_rows_and_header(self, sdq_report, tmp_path):
        written = emit_tables(sdq_report, str(tmp_path), "csv")
        assert written
        for path in written:
            lines = open(path).read().splitlines()
            assert lines[0] == "hbar,defect,slope_window"
            # first data row has an empty slope window
            assert lines[1].endswith(",")

    def test_csv_reemission_byte_identical(self, sdq_report, tmp_path):
        first = emit_tables(sdq_report, str(tmp_path), "csv")
        blobs = [open(p, "rb").read() for p in first]
        second = emit_tables(sdq_report, str(tmp_path), "csv")
        assert first == second
        assert blobs == [open(p, "rb").read() for p in second]

    def test_empty_report_header_only(self, tmp_path):
        empty = {"suite": "weyl-laws", "checks": []}
        written = emit_tables(empty, str(tmp_path), "csv")
        assert len(written) == 1
        assert open(written[0]).read() == "hbar,defect,slope_window\n"

    def test_json_format_writes_report(self, sdq_report, tmp_path):
        written = emit_tables(sdq_report, str(tmp_path), "json")
        assert len(written) == 1
        loaded = json.loads(open(written[0]).read())
        assert loaded["suite"] == "weyl-sdq"

    def test_unknown_format_rejected(self, sdq_report, tmp_path):
        with pytest.raises(ConfigError):
            emit_tables(sdq_report, str(tmp_path), "xml")


class TestCli:
    def test_list_suites(self, capsys):
        assert cli.main(["list-suites"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(SUITE_NAMES)

    def test_run_writes_report_and_tables(self, tmp_path, capsys):
        code = cli.main(
            ["run", "weyl-sdq", "--out", str(tmp_path), "--format", "csv"]
        )
        assert code == 0
        report = json.loads((tmp_path / "weyl-sdq.report.json").read_text())
        assert report["summary"]["failed"] == 0
        assert (tmp_path / "weyl-sdq.sdq-02-dirac-closed-form.csv").exists()

    @pytest.mark.parametrize("fmt", [None, "json", "csv"])
    def test_report_is_written_once(self, fmt, tmp_path, monkeypatch, capsys):
        rendered = []
        to_json = harness.report_to_json

        def counted(report):
            rendered.append(report["suite"])
            return to_json(report)

        monkeypatch.setattr(harness, "report_to_json", counted)
        argv = ["run", "weyl-sdq", "--out", str(tmp_path)]
        code = cli.main(argv + (["--format", fmt] if fmt else []))
        assert code == 0
        assert rendered == ["weyl-sdq"]
        wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
        assert len(wrote) == len(set(wrote))
        assert wrote[0] == "wrote %s" % (tmp_path / "weyl-sdq.report.json")
        assert sorted(os.path.basename(line[len("wrote "):]) for line in wrote) == sorted(
            os.listdir(tmp_path)
        )
        assert len(wrote) == (3 if fmt == "csv" else 1)

    def test_weyl_sdq_schedule_above_one_exits_two(self, tmp_path, capsys):
        cfg = dict(default_config("weyl-sdq"), schedule=["2", "1", "1/2", "1/4"])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = cli.main(["run", "weyl-sdq", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert "config error: weyl-sdq schedule entry '2' is above 1" in capsys.readouterr().err
        assert not out.exists()

    def test_schedule_with_one_float_log_exits_two_before_any_product(
        self, tmp_path, monkeypatch, capsys
    ):
        # four consecutive floats below 1e300 share one float logarithm: the
        # fit would refuse them, so the validator does, before any product
        schedule = [1e300]
        for _ in range(3):
            schedule.append(math.nextafter(schedule[-1], 0.0))
        assert len({math.log(h) for h in schedule}) == 1
        twists = []
        twist_stage = rieffel._twist_stage

        def counted_twist(pair, hbar):
            twists.append(hbar)
            return twist_stage(pair, hbar)

        monkeypatch.setattr(rieffel, "_twist_stage", counted_twist)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(default_config("rieffel-sdq"), schedule=schedule)))
        out = tmp_path / "out"
        code = cli.main(["run", "rieffel-sdq", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert "log h takes one value at every schedule entry" in capsys.readouterr().err
        assert twists == []
        assert not out.exists()

    def test_out_naming_a_file_exits_two_before_the_suite_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_run(config):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli, "run_suite", no_run)
        out = tmp_path / "taken"
        out.write_text("keep")
        code = cli.main(["run", "weyl-sdq", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: --out %s exists and is not a directory" % out in err
        assert out.read_text() == "keep"
        assert sorted(os.listdir(tmp_path)) == ["taken"]

    def test_empty_out_exits_two_before_the_suite_runs(self, tmp_path, monkeypatch, capsys):
        def no_run(config):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli, "run_suite", no_run)
        monkeypatch.chdir(tmp_path)
        code = cli.main(["run", "weyl-sdq", "--out", ""])
        assert code == 2
        assert "config error: --out must name a directory" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("under", [os.path.join("sub", "dir"), "", ".."],
                             ids=["subdir", "trailing-sep", "parent-ref"])
    def test_out_under_a_file_exits_two_before_the_suite_runs(
        self, tmp_path, monkeypatch, capsys, under
    ):
        def no_run(config):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(cli, "run_suite", no_run)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        out = os.path.join(str(taken), under)
        code = cli.main(["run", "weyl-sdq", "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: --out %s lies under %s, which is not a directory" % (
            out, taken) in err
        assert taken.read_text() == "keep"
        assert sorted(os.listdir(tmp_path)) == ["taken"]

    def test_seed_override(self, tmp_path):
        code = cli.main(
            ["run", "weyl-sdq", "--seed", "99", "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "weyl-sdq.report.json").read_text())
        assert report["seed"] == 99

    def test_corrupted_config_exits_two(self, tmp_path, capsys):
        cfg = default_config("rieffel-sdq")
        cfg["schedule"] = [0.05, 0.1, 0.2, 0.4]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = cli.main(
            ["run", "rieffel-sdq", "--config", str(path), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_list_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([default_config("weyl-sdq")]))
        code = cli.main(
            ["run", "weyl-sdq", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "config error: config schema violation" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", UNREADABLE_CONFIGS, ids=UNREADABLE_CONFIG_IDS)
    def test_unreadable_config_file_exits_two(self, content, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        out = tmp_path / "out"
        code = cli.main(["run", "weyl-laws", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config ")
        assert not out.exists()

    def test_suite_config_mismatch_exits_two(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(default_config("weyl-laws")))
        code = cli.main(
            ["run", "weyl-sdq", "--config", str(path), "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_malformed_thread_setting_exits_two(self, value, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QUANTAEQUIV_THREADS", value)
        code = cli.main(["run", "weyl-sdq", "--out", str(tmp_path)])
        assert code == 2
        assert "config error: QUANTAEQUIV_THREADS" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "suite, field, value",
        [
            ("weyl-laws", "seed", 1.0),
            ("weyl-sdq", "sample_count", 100.0),
            ("equivalence-weyl", "max_pairs", 200.0),
            ("rieffel-morphisms", "grid_points", 64.0),
            ("weyl-transform", "truncations", [32.0, 64.0]),
            ("weyl-laws", "schema_version", 2.0),
        ],
    )
    def test_integral_float_in_integer_field_exits_two(
        self, suite, field, value, tmp_path, capsys
    ):
        # 64.0 is not an integer: the run must not start on it
        cfg = dict(default_config(suite), **{field: value})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = cli.main(["run", suite, "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error:" in err and field in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "suite, field, value, message",
        [
            ("weyl-laws", "hbar", 0.5,
             "config schema violation: hbar: suite 'weyl-laws' takes no such field"),
            ("weyl-transform", "schedule", [0.4, 0.2, 0.1, 0.05],
             "config schema violation: schedule: suite 'weyl-transform' takes no such field"),
            ("rieffel-sdq", "grid_points", 100,
             "GridError: points_per_axis must be a power of two"),
            ("rieffel-sdq", "schedule", ["1e400", "1", "1/2", "1/4"],
             "unreadable schedule entry: integer division result too large for a float"),
            ("weyl-sdq", "schedule", ["1/2", "1/4", "1/8", "1e-400"],
             "schedule entry '1e-400' is too small for the float table rows"),
            ("rieffel-sdq", "schedule", ["1e999999999", "1", "1/2", "1/4"],
             "unreadable schedule entry: integer division result too large for a float"),
            ("weyl-sdq", "schedule", ["1/2", "1/4", "1/8", "1e-999999999"],
             "schedule entry '1e-999999999' is too small for the float table rows"),
            pytest.param("rieffel-sdq", "grid_extent", 10**400,
                         "config schema violation: grid_extent: %d is not a finite number" % 10**400,
                         id="rieffel-sdq-grid_extent-10**400"),
            pytest.param("rieffel-sdq", "hbar", 10**400,
                         "config schema violation: hbar: %d is not a finite number" % 10**400,
                         id="rieffel-sdq-hbar-10**400"),
            ("weyl-transform", "hbar", 0.001, "TruncationError: "),
            ("rieffel-morphisms", "grid_extent", 2.0, "SupportError: "),
        ],
    )
    def test_unusable_config_exits_two(self, suite, field, value, message, tmp_path, capsys):
        # refused at validation, or by a grid guard once the suite runs
        cfg = dict(default_config(suite), **{field: value})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = cli.main(["run", suite, "--config", str(path), "--out", str(out)])
        assert code == 2
        assert "config error: %s" % message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "suite, field, value, message",
        [
            ("rieffel-morphisms", "grid_points", 16384, "grid_points: 16384 is greater than 2048"),
            ("weyl-transform", "truncations", [32, 64, 4096],
             "truncations[2]: 4096 is greater than 1024"),
            ("weyl-transform", "truncations", list(range(16, 50, 2)),
             "truncations: 17 items, not between 2 and 16"),
            ("rieffel-sdq", "schedule", [0.4 / 2**k for k in range(65)],
             "schedule: 65 items, not between 4 and 64"),
        ],
    )
    def test_oversize_grid_or_truncation_exits_two_before_any_array(
        self, suite, field, value, message, tmp_path, monkeypatch, capsys
    ):
        def no_samples(*args):
            raise AssertionError("grid samples built")

        monkeypatch.setattr(rieffel.GridFunction, "__init__", no_samples)
        cfg = dict(default_config(suite), **{field: value})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = cli.main(["run", suite, "--config", str(path), "--out", str(out)])
        assert code == 2
        assert "config error: config schema violation: %s" % message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "suite, field, value",
        [
            ("weyl-laws", "sample_count", 10**5),
            ("weyl-sdq", "sample_count", 10**4 + 1),
            ("equivalence-weyl", "sample_count", 10**6),
            ("equivalence-weyl", "max_pairs", 10**4 + 1),
        ],
    )
    def test_oversize_sample_count_or_max_pairs_exits_two_before_sampling(
        self, suite, field, value, tmp_path, monkeypatch, capsys
    ):
        # equivalence-weyl takes about 5.4 KB per arrow: 10**6 arrows would be 5 GB
        def no_sampling(*args, **kwargs):
            raise AssertionError("suite started sampling")

        for name in ("make_rng", "random_element", "sample_classical_arrows"):
            monkeypatch.setattr(harness, name, no_sampling)
        cfg = dict(default_config(suite), **{field: value})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = cli.main(["run", suite, "--config", str(path), "--out", str(out)])
        assert code == 2
        message = "%s: %d is greater than %d" % (field, value, 10**4)
        assert "config error: config schema violation: %s" % message in capsys.readouterr().err
        assert not out.exists()

    def test_oversize_transform_exits_two_before_symbol_work(self, tmp_path, monkeypatch, capsys):
        def no_symbol_work(*args):
            raise AssertionError("symbol work started")

        monkeypatch.setattr(rieffel, "_class_symbols", no_symbol_work)
        monkeypatch.setattr(rieffel, "_powers", no_symbol_work)
        # the window on the 512^2 grid has 22021 |k|^2 classes, too many at
        # n = 1024; its check comes first, so its refusal ends the run
        cfg = dict(default_config("weyl-transform"), grid_points=512, truncations=[32, 1024])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = cli.main(["run", "weyl-transform", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: GridError: 22021 |k|^2 classes at truncation 1024" in err
        assert str(rieffel._MAX_TRANSFORM_ENTRIES) in err
        assert not out.exists()

    def test_rieffel_sdq_at_small_hbar_exits_zero(self, tmp_path, capsys):
        # the oracle's nodes follow hbar: 8192 at 0.02, where 2048 left
        # rsdq-02 at 1.06e-4 on a correct product
        cfg = dict(default_config("rieffel-sdq"), hbar=0.02)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = cli.main(["run", "rieffel-sdq", "--config", str(path), "--out", str(out)])
        assert code == 0, capsys.readouterr()
        report = json.loads((out / "rieffel-sdq.report.json").read_text())
        (oracle,) = [c for c in report["checks"] if c["id"] == "rsdq-02-quadrature-oracle"]
        assert oracle["value"] <= 1e-12

    def test_hbar_past_the_oracle_node_cap_exits_two_before_any_factor_call(
        self, tmp_path, monkeypatch, capsys
    ):
        # hbar = 1e-3 needs 1.03e5 nodes per axis, above the cap of 2**16
        calls, reached = [], []
        oracle = rieffel.moyal_quadrature_oracle

        def recording(factor):
            def sampled(x):
                calls.append(x)
                return factor(x)

            return sampled

        def recorded_oracle(f_factors, g_factors, hbar, points):
            reached.append(hbar)
            f_factors, g_factors = (tuple(map(recording, h)) for h in (f_factors, g_factors))
            return oracle(f_factors, g_factors, hbar, points)

        # the rieffel-sdq builder reads the oracle from rieffel when it is called
        monkeypatch.setattr(rieffel, "moyal_quadrature_oracle", recorded_oracle)
        cfg = dict(default_config("rieffel-sdq"), hbar=1e-3)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = cli.main(["run", "rieffel-sdq", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: GridError: the oracle needs" in err
        assert str(rieffel._ORACLE_MAX_NODES) in err
        assert reached == [1e-3] and calls == []
        assert not out.exists()

    def test_grid_guard_under_default_config_is_not_a_config_error(self, tmp_path, monkeypatch):
        # the default configs are fixed inputs: a guard raised there stays loud
        def guarded_builder(config):
            def task():
                raise rieffel.SupportError("image support escapes the domain")
            return [task]

        _, fields = harness._SUITES["rieffel-morphisms"]
        monkeypatch.setitem(harness._SUITES, "rieffel-morphisms", (guarded_builder, fields))
        with pytest.raises(rieffel.SupportError):
            cli.main(["run", "rieffel-morphisms", "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_unknown_suite_exits_two(self, capsys):
        assert cli.main(["run", "no-such-suite"]) == 2

    def test_failing_check_exits_one(self, tmp_path, monkeypatch):
        def stub_builder(config):
            return [lambda: [harness._record("stub-1", False, value=1.0, tolerance=0.0)]]

        _, fields = harness._SUITES["weyl-sdq"]
        monkeypatch.setitem(harness._SUITES, "weyl-sdq", (stub_builder, fields))
        code = cli.main(["run", "weyl-sdq", "--out", str(tmp_path)])
        assert code == 1

    def test_console_script_entry_point(self, fresh_env):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"quantaequiv": "quantaequiv.cli:main"}
        # run the target the way the generated console script does
        module, func = scripts["quantaequiv"].split(":")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from %s import %s; sys.exit(%s())" % (module, func, func),
             "list-suites"],
            capture_output=True, text=True, env=fresh_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == list(SUITE_NAMES)

    @pytest.mark.skipif(
        shutil.which("quantaequiv") is None,
        reason="quantaequiv console script not on PATH (package not installed)",
    )
    def test_console_script_is_installed(self):
        proc = subprocess.run(
            ["quantaequiv", "list-suites"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.split() == list(SUITE_NAMES)


_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


# the grid suites under each pair of worker and BLAS thread counts; exact work
# is pure Python, its only BLAS calls weyl-sdq's 4 x 2 slope fits, so the exact
# suites run once per worker count with the BLAS threads alongside
_EVERY_SETTING = [(w, b) for w in ("1", "2") for b in ("1", "2")]
_WORKER_SETTINGS = [("1", "1"), ("2", "2")]

# truncations the defaults miss, where threaded BLAS rounds differently: wt-03's
# residual zgemm at 129 and 513, eigh at 513 too; apart, since at
# [32, 64, 129, 513] pair 2's residual is at its round-off floor and fails
# its monotone check
_ODD_TRUNCATIONS = [
    pytest.param("weyl-transform", {"truncations": [32, 64, 129]}, _EVERY_SETTING,
                 id="weyl-transform-129"),
    pytest.param("weyl-transform", {"truncations": [32, 64, 513]}, [("1", "2"), ("2", "1")],
                 id="weyl-transform-513"),
]


class TestThreadCountDeterminism:
    @pytest.mark.parametrize(
        "suite, fields, settings",
        [pytest.param(s, None, _EVERY_SETTING, id=s)
         for s in ("weyl-transform", "rieffel-morphisms", "rieffel-sdq")]
        + [pytest.param(s, None, _WORKER_SETTINGS, id=s)
           for s in ("weyl-laws", "weyl-sdq", "equivalence-weyl")]
        + _ODD_TRUNCATIONS,
    )
    def test_outputs_do_not_depend_on_thread_counts(
        self, suite, fields, settings, tmp_path, fresh_env
    ):
        command = [sys.executable, "-m", "quantaequiv.cli", "run", suite, "--format", "csv"]
        if fields is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(dict(default_config(suite), **fields)))
            command += ["--config", str(path)]
        outputs = {}
        for workers, blas in settings:
            # one fresh process per setting: OpenBLAS reads its thread count at load
            out = tmp_path / ("workers%s-blas%s" % (workers, blas))
            proc = subprocess.run(
                command + ["--out", str(out)], capture_output=True, text=True,
                env=fresh_env(QUANTAEQUIV_THREADS=workers, OPENBLAS_NUM_THREADS=blas),
            )
            assert proc.returncode == 0, proc.stderr
            outputs[workers, blas] = {
                path.name: _TIMESTAMP.sub(b"", path.read_bytes())
                for path in sorted(out.iterdir())
            }
        reference = outputs[settings[0]]
        assert "%s.report.json" % suite in reference
        for setting, files in outputs.items():
            assert files.keys() == reference.keys(), setting
            changed = [name for name in reference if files[name] != reference[name]]
            assert not changed, "threads %s changed %s" % (setting, changed)
