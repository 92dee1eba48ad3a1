"""Config validation, suite runner plumbing, table emission, CLI exit codes."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import quantaequiv
from quantaequiv import cli
from quantaequiv import harness, rieffel
from quantaequiv.harness import (
    SUITE_NAMES,
    ConfigError,
    default_config,
    emit_tables,
    load_config,
    report_to_json,
    run_suite,
    validate_config,
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

    @pytest.mark.parametrize("entry", ["1e400", 10**400], ids=["string", "integer"])
    def test_overflowing_schedule_entry_rejected(self, entry):
        cfg = dict(default_config("rieffel-sdq"), schedule=[entry, "1", "1/2", "1/4"])
        with pytest.raises(ConfigError, match="unreadable schedule entry: .*too large"):
            validate_config(cfg)

    @pytest.mark.parametrize("suite", ["weyl-sdq", "rieffel-sdq"])
    def test_underflowing_schedule_entry_rejected_as_too_small(self, suite):
        # 1e-400 is a positive exact fiber whose float is 0.0
        cfg = dict(default_config(suite), schedule=["1/2", "1/4", "1/8", "1e-400"])
        with pytest.raises(ConfigError, match="'1e-400' is too small for the float table rows"):
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
            ("weyl-laws", "schema_version", 2),
            ("weyl-laws", "seed", 2**64),
            ("rieffel-sdq", "grid_extent", 0),
            ("rieffel-sdq", "hbar", -0.1),
            ("weyl-transform", "truncations", [8, 32]),
            ("rieffel-sdq", "schedule", [0.4, 0.2, 0.1]),
            ("rieffel-sdq", "grid_points", 4096),  # a 2048**2 complex grid is 64 MiB
            ("weyl-transform", "truncations", [32, 2048]),
        ],
    )
    def test_out_of_bounds_field_rejected(self, suite, field, value):
        cfg = dict(default_config(suite), **{field: value})
        with pytest.raises(ConfigError, match="^config schema violation: "):
            validate_config(cfg)

    @pytest.mark.parametrize(
        "suite, field, value",
        [
            ("rieffel-sdq", "hbar", float("nan")),
            ("weyl-transform", "grid_extent", float("inf")),
            ("rieffel-sdq", "schedule", [float("inf"), 0.2, 0.1, 0.05]),
        ],
    )
    def test_non_finite_number_rejected(self, suite, field, value):
        # json.load reads NaN and Infinity; the run must not start on them
        cfg = dict(default_config(suite), **{field: value})
        with pytest.raises(ConfigError, match="%s.*not a finite number" % field):
            validate_config(cfg)

    @pytest.mark.parametrize(
        "suite, field, value",
        [("rieffel-sdq", "grid_points", 2048), ("weyl-transform", "truncations", [32, 1024])],
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
        path.write_text("{not json")
        with pytest.raises(ConfigError):
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
        assert sdq_report["schema_version"] == 1
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
        # closed form 1, oracle 1, and one f*g per pair and hbar: 3 x 4
        calls = []
        product = rieffel.moyal_product

        def counted_product(*args, **kwargs):
            calls.append(args[2])
            return product(*args, **kwargs)

        monkeypatch.setattr(rieffel, "moyal_product", counted_product)
        monkeypatch.setattr(harness, "moyal_product", counted_product)
        report = run_suite(default_config("rieffel-sdq"))
        assert len(calls) == 14
        assert report["checks"] == rsdq_report["checks"]

    def test_saturated_weyl_sdq_study_is_saturated(self, monkeypatch):
        # a defect below the saturation floor leaves no slope to compare
        monkeypatch.setattr(harness, "dirac_defect", lambda space, f, g, h: 0.0)
        report = run_suite(dict(default_config("weyl-sdq"), sample_count=4))
        checks = {c["id"]: c for c in report["checks"]}
        assert checks["sdq-04-dirac-order"]["status"] == "saturated"
        assert "value" not in checks["sdq-04-dirac-order"]
        assert checks["sdq-03-von-neumann-order"]["status"] == "pass"
        assert checks["sdq-02-dirac-closed-form"]["status"] == "fail"

    def test_weyl_laws_run_as_one_task(self):
        # the exact law checks hold the GIL: one task keeps them off the pool
        build_checks, _ = harness._SUITES["weyl-laws"]
        tasks = build_checks(default_config("weyl-laws"))
        assert len(tasks) == 1

    def test_environment_stamp_fields(self, sdq_report):
        env = sdq_report["environment"]
        assert set(env) == {"numpy", "scipy", "python", "platform", "machine"}

    def test_environment_stamp_without_scipy(self, monkeypatch):
        import importlib.metadata

        def not_installed(name):
            raise importlib.metadata.PackageNotFoundError(name)

        monkeypatch.setattr(importlib.metadata, "version", not_installed)
        assert harness._environment_stamp()["scipy"] is None


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

    def test_console_script_entry_point(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"quantaequiv": "quantaequiv.cli:main"}
        # run the target the way the generated console script does
        module, func = scripts["quantaequiv"].split(":")
        env = dict(os.environ)
        src = str(Path(quantaequiv.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from %s import %s; sys.exit(%s())" % (module, func, func),
             "list-suites"],
            capture_output=True, text=True, env=env,
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


class TestThreadCountDeterminism:
    @pytest.mark.parametrize("suite", ["weyl-transform", "rieffel-morphisms"])
    def test_outputs_do_not_depend_on_thread_counts(self, suite, tmp_path):
        # one fresh process per setting: OpenBLAS reads its thread count at load
        src = str(Path(quantaequiv.__file__).resolve().parents[1])
        outputs = {}
        for workers in ("1", "2"):
            for blas in ("1", "2"):
                env = dict(os.environ, QUANTAEQUIV_THREADS=workers, OPENBLAS_NUM_THREADS=blas)
                env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
                out = tmp_path / ("workers%s-blas%s" % (workers, blas))
                proc = subprocess.run(
                    [sys.executable, "-m", "quantaequiv.cli", "run", suite,
                     "--format", "csv", "--out", str(out)],
                    capture_output=True, text=True, env=env,
                )
                assert proc.returncode == 0, proc.stderr
                outputs[workers, blas] = {
                    path.name: _TIMESTAMP.sub(b"", path.read_bytes())
                    for path in sorted(out.iterdir())
                }
        reference = outputs["1", "1"]
        assert "%s.report.json" % suite in reference
        for setting, files in outputs.items():
            assert files.keys() == reference.keys(), setting
            changed = [name for name in reference if files[name] != reference[name]]
            assert not changed, "threads %s changed %s" % (setting, changed)
