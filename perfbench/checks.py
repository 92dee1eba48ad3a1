"""Correctness checks on what one workload round wrote: reports and CSV tables.

Every check is one operation of the benchmark.  The list of operations for
a suite depends only on the suite, never on what the report contains, so a
missing or broken report fails a fixed number of operations instead of
shrinking the count.  The checks use the program's own verdicts (exit
code, check status) and properties the benchmark recomputes from the
written files: violation counts, slopes refitted by its own least squares,
and the oscillator residual rows.  None of them
compares against a stored copy of an earlier output.

An operation is a tuple ``(name, ok, detail)``.
"""

import json
import math
import os
import re

from workloads import EXPECTED_CHECKS

# Slope bands: the suite's own for rsdq-03/04, the weyl-sdq order tolerance
# (0.05) for the sdq-01/02 envelopes.
RSDQ_BANDS = {"rsdq-03": (0.8, 1.2), "rsdq-04": (1.8, 2.2)}
SDQ_ENVELOPE_BANDS = {
    "sdq-01-von-neumann-closed-form": (0.95, 1.05),
    "sdq-02-dirac-closed-form": (1.95, 2.05),
}
SLOPE_AGREEMENT = 1e-9
WT_REFERENCE_TRUNCATION = 64
WT_RESIDUAL_MAX = 1e-3

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def read_suite_output(out_dir, suite):
    """(report text or None, {table key: csv text}) as ``cli.main`` wrote them."""
    report_text = None
    report_path = os.path.join(out_dir, "%s.report.json" % suite)
    if os.path.exists(report_path):
        with open(report_path, "r", encoding="utf-8") as fh:
            report_text = fh.read()
    tables = {}
    prefix = suite + "."
    for name in sorted(os.listdir(out_dir)):
        if name.startswith(prefix) and name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
                tables[name[len(prefix):-len(".csv")]] = fh.read()
    return report_text, tables


def fit_slope(rows):
    """Least-squares slope of log(defect) against log(hbar)."""
    xs = [math.log(h) for h, _ in rows]
    ys = [math.log(d) for _, d in rows]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def parse_table(text):
    """Rows (hbar, defect) of a ``hbar,defect,slope_window`` CSV table."""
    lines = text.splitlines()
    if not lines or lines[0] != "hbar,defect,slope_window":
        raise ValueError("unexpected table header")
    rows = []
    for line in lines[1:]:
        h, d, _ = line.split(",")
        rows.append((float(h), float(d)))
    return rows


def _parse_report(suite, text):
    if text is None:
        raise ValueError("no report written")
    report = json.loads(text)
    if report.get("suite") != suite:
        raise ValueError("report is for suite %r" % report.get("suite"))
    records = report["checks"]
    summary = report["summary"]
    counted = {
        "total": len(records),
        "passed": sum(1 for r in records if r["status"] == "pass"),
        "failed": sum(1 for r in records if r["status"] == "fail"),
        "saturated": sum(1 for r in records if r["status"] == "saturated"),
    }
    if summary != counted:
        raise ValueError("summary %r does not count the records %r" % (summary, counted))
    return report


def _checked(name, fn):
    """Run one property; any error in reading the data fails the operation."""
    try:
        ok, detail = fn()
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return (name, False, "%s: %s" % (type(exc).__name__, exc))
    return (name, bool(ok), detail)


def check_suite(suite, exit_code, report_text, tables):
    """All operations for one suite's output of one round."""
    ops = [("%s.exit-code" % suite, exit_code == 0, "cli.main returned %r" % exit_code)]
    try:
        report = _parse_report(suite, report_text)
        ops.append(("%s.report" % suite, True, "parsed"))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        report = None
        ops.append(("%s.report" % suite, False, "%s: %s" % (type(exc).__name__, exc)))
    expected = EXPECTED_CHECKS[suite]
    records = {}
    if report is not None:
        ids = [r.get("id") for r in report["checks"]]
        ops.append(
            ("%s.check-ids" % suite, ids == list(expected), "ids %s" % ",".join(map(str, ids)))
        )
        records = {r.get("id"): r for r in report["checks"]}
    else:
        ops.append(("%s.check-ids" % suite, False, "no report"))

    def record(check_id):
        if check_id not in records:
            raise KeyError("no record %s" % check_id)
        return records[check_id]

    for check_id in expected:
        ops.append(
            _checked(
                "%s.%s.status" % (suite, check_id),
                lambda c=check_id: (record(c)["status"] == "pass", record(c)["status"]),
            )
        )
    ops.extend(_PROPERTIES[suite](record, tables))
    return ops


# --- recomputed properties, per suite -------------------------------------------


def _zero_violations(suite, ids):
    def props(record, tables):
        return [
            _checked(
                "%s.%s.violations" % (suite, c),
                lambda c=c: (record(c)["value"] == 0, "value %r" % record(c)["value"]),
            )
            for c in ids
        ]

    return props


def _table_matches_witness(rows, witness_rows):
    if len(rows) != len(witness_rows):
        return False
    return all(
        math.isclose(h, wh, rel_tol=1e-11) and d == wd
        for (h, d), (wh, wd) in zip(rows, witness_rows)
    )


def _refit(record, tables, check_id):
    """Slope refitted from a check's CSV rows, which must be its witness rows."""
    rows = parse_table(tables[check_id])
    if not _table_matches_witness(rows, record(check_id)["witness"]["rows"]):
        raise ValueError("table rows differ from the report's witness rows")
    return fit_slope(rows)


def _envelope_slope(record, tables, check_id):
    low, high = SDQ_ENVELOPE_BANDS[check_id]
    slope = _refit(record, tables, check_id)
    return low <= slope <= high, "envelope slope %.6f, band [%g, %g]" % (slope, low, high)


def _weyl_sdq(record, tables):
    ops = _zero_violations(
        "weyl-sdq", ("sdq-05-k0-brute-force", "sdq-06-rieffel-constancy")
    )(record, tables)
    for check_id in SDQ_ENVELOPE_BANDS:
        ops.append(
            _checked(
                "weyl-sdq.%s.envelope-slope" % check_id,
                lambda c=check_id: _envelope_slope(record, tables, c),
            )
        )
    return ops


def _rsdq_slope(record, tables, check_id):
    low, high = RSDQ_BANDS[check_id[:7]]
    slope = _refit(record, tables, check_id)
    reported = record(check_id)["value"]
    agrees = abs(slope - reported) <= SLOPE_AGREEMENT * max(1.0, abs(reported))
    detail = "refit %.12f, reported %r, band [%g, %g]" % (slope, reported, low, high)
    return agrees and low <= slope <= high, detail


def _rieffel_sdq(record, tables):
    return [
        _checked(
            "rieffel-sdq.%s.refit-slope" % c,
            lambda c=c: _rsdq_slope(record, tables, c),
        )
        for c in EXPECTED_CHECKS["rieffel-sdq"]
        if c[:7] in RSDQ_BANDS
    ]


def _residuals_decrease(record, check_id):
    rows = [(int(n), float(r)) for n, r in record(check_id)["witness"]["residuals"]]
    ok = len(rows) >= 2 and all(
        n0 < n1 and r0 > r1 for (n0, r0), (n1, r1) in zip(rows, rows[1:])
    )
    return ok, "residuals %r" % (rows,)


def _reference_residual(record, check_id):
    residual = dict(
        (int(n), float(r)) for n, r in record(check_id)["witness"]["residuals"]
    )[WT_REFERENCE_TRUNCATION]
    return residual <= WT_RESIDUAL_MAX, "residual %r <= %g" % (residual, WT_RESIDUAL_MAX)


def _weyl_transform(record, tables):
    ops = []
    for c in EXPECTED_CHECKS["weyl-transform"]:
        if c.startswith("wt-03-"):
            ops.append(
                _checked(
                    "weyl-transform.%s.residuals-decrease" % c,
                    lambda c=c: _residuals_decrease(record, c),
                )
            )
            ops.append(
                _checked(
                    "weyl-transform.%s.residual-%d" % (c, WT_REFERENCE_TRUNCATION),
                    lambda c=c: _reference_residual(record, c),
                )
            )
    return ops


_PROPERTIES = {
    "weyl-laws": _zero_violations("weyl-laws", EXPECTED_CHECKS["weyl-laws"]),
    "weyl-sdq": _weyl_sdq,
    "equivalence-weyl": _zero_violations("equivalence-weyl", EXPECTED_CHECKS["equivalence-weyl"]),
    "rieffel-sdq": _rieffel_sdq,
    "weyl-transform": _weyl_transform,
}


# --- replay ------------------------------------------------------------------


def check_replay(suite, first, second):
    """Two rounds' outputs (report text, tables) must be byte-identical bar the timestamp."""
    (report_a, tables_a), (report_b, tables_b) = first, second
    name = "%s.replay" % suite
    if report_a is None or report_b is None:
        return (name, False, "a report is missing")
    if _TIMESTAMP.sub('"timestamp": ""', report_a) != _TIMESTAMP.sub('"timestamp": ""', report_b):
        return (name, False, "reports differ beyond the timestamp")
    if tables_a != tables_b:
        differing = sorted(set(tables_a) ^ set(tables_b)) or sorted(
            k for k in tables_a if tables_a[k] != tables_b.get(k)
        )
        return (name, False, "tables differ: %s" % ", ".join(differing))
    return (name, True, "identical apart from the timestamp")
