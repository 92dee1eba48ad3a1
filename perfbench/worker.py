"""One round of one workload, in a fresh interpreter started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR --result FILE
                                [--trace] [--setup-only]

The round imports the package, builds and validates the configs of the
workload's suites, notes the time (the end of set-up), and then runs each
suite through ``quantaequiv.cli.main`` exactly as a user would.  It times
those calls, reads the process's peak resident memory, runs the workload's
negative controls (untimed) and writes everything as JSON to FILE.  With
``--setup-only`` it stops at the end of set-up.  With ``--trace`` the
package functions listed in ``workloads.TRACED`` are wrapped for the suite
calls, and the spans go to ``DIR/spans.json``.

The package is imported from the ``src`` directory beside ``perfbench``.
"""

import argparse
import json
import os
import resource
import sys
import time

import workloads


def _setup(workload, seed):
    """What a user pays before the first suite starts: imports and configs."""
    from quantaequiv import harness

    for suite in workloads.WORKLOADS[workload]:
        config = harness.default_config(suite)
        if suite not in workloads.DEFAULT_SEED_ONLY:
            config["seed"] = seed
        harness.validate_config(config)


def _run_suites(workload, seed, out_dir):
    from quantaequiv import cli

    suites = {}
    for suite in workloads.WORKLOADS[workload]:
        argv = ["run", suite, "--out", out_dir, "--format", "csv"]
        if suite not in workloads.DEFAULT_SEED_ONLY:
            argv += ["--seed", str(seed)]
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        code = cli.main(argv)
        cpu1 = time.process_time()
        wall1 = time.perf_counter()
        suites[suite] = {"exit_code": code, "wall_s": wall1 - wall0, "cpu_s": cpu1 - cpu0}
    return suites


# --- negative controls ---------------------------------------------------------
# Each returns (name, raised the expected error, detail).  They rebuild the
# suites' own inputs and break one thing, so a fast path that skips the guard
# shows up as a control that no longer raises.


def _raises(error, fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except error as exc:
        return True, "%s: %s" % (type(exc).__name__, exc)
    except Exception as exc:  # a different error is a failed control, not a crash
        return False, "raised %s: %s" % (type(exc).__name__, exc)
    return False, "returned without raising %s" % error.__name__


def _nudged_arrow_controls():
    from fractions import Fraction

    from quantaequiv import harness
    from quantaequiv.symplectic import LinearMapSpec
    from quantaequiv.weyl_equivalence import sample_classical_arrows
    from quantaequiv.weyl_functors import (
        FunctorError,
        WeylMorphismSpec,
        classical_limit_morphism,
        quantize_morphism,
        quantize_object,
    )

    # arrows are drawn one after another, so a pool of one holds the first
    # arrow "m0" of the suite's pool of 100
    seed = harness.default_config("equivalence-weyl")["seed"]
    arrow = sample_classical_arrows(seed, 1)[0].payload
    rows = [list(row) for row in arrow.linear.matrix]
    rows[0][0] += Fraction(1, 7)
    nudged = LinearMapSpec(tuple(tuple(row) for row in rows))
    classical = WeylMorphismSpec(chi=arrow.chi, linear=nudged, dom=arrow.dom, cod=arrow.cod)
    quantum = WeylMorphismSpec(
        chi=arrow.chi,
        linear=nudged,
        dom=quantize_object(arrow.dom),
        cod=quantize_object(arrow.cod),
    )
    return [
        ("control.quantize_morphism.nudged-arrow",)
        + _raises(FunctorError, quantize_morphism, classical),
        ("control.classical_limit_morphism.nudged-arrow",)
        + _raises(FunctorError, classical_limit_morphism, quantum),
    ]


def _support_control():
    from quantaequiv import harness
    from quantaequiv.rieffel import Grid2n, GridFunction, SupportError, moyal_product

    config = harness.default_config("rieffel-sdq")
    grid = Grid2n(1, config["grid_points"], config["grid_extent"])
    # e^{-0.01 r^2} is still 0.37 at the edge of the 20-wide domain
    wide = GridFunction.gaussian(grid, (0.0, 0.0), 0.01)
    narrow = GridFunction.gaussian(grid, (0.0, 0.0), 1.0)
    return [
        ("control.moyal_product.wide-gaussian",)
        + _raises(SupportError, moyal_product, wide, narrow, config["hbar"])
    ]


# The Gaussians of the weyl-transform suite's wt-03 pairs (harness.py).
WT03_GAUSSIANS = (
    ((0.5, 0.0), 1.0),
    ((-0.4, 0.3), 2.0 / 3.0),
    ((0.8, 0.0), 0.5),
    ((-0.5, 0.4), 1.0 / 3.0),
)


def _truncation_controls():
    from quantaequiv import harness
    from quantaequiv.rieffel import Grid2n, GridFunction, TruncationError, weyl_transform

    config = harness.default_config("weyl-transform")
    grid = Grid2n(1, config["grid_points"], config["grid_extent"])
    out = []
    for k, (center, decay) in enumerate(WT03_GAUSSIANS):
        f = GridFunction.gaussian(grid, center, decay)
        out.append(
            ("control.weyl_transform.truncation-16.gaussian%d" % (k + 1),)
            + _raises(TruncationError, weyl_transform, f, config["hbar"], 16)
        )
    return out


def negative_controls(workload):
    if workload == "exact":
        return _nudged_arrow_controls()
    if workload == "grid-product":
        return _support_control()
    if workload == "oscillator":
        return _truncation_controls()
    raise ValueError("unknown workload %r" % workload)


# --- traced layers -------------------------------------------------------------


def _layer_metrics(tracer):
    out = {}
    for name, (calls, inclusive, own) in tracer.totals().items():
        out[name + ".calls"] = calls
        out[name + ".s"] = inclusive
        if name in workloads.SELF_TIMED:
            out[name + ".self_s"] = own
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _setup(args.workload, args.seed)
    result = {"ready": time.perf_counter()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer("quantaequiv", workloads.TRACED, workloads.AGGREGATE_ONLY)
            tracer.install()
        try:
            result["suites"] = _run_suites(args.workload, args.seed, args.out)
        finally:
            if tracer is not None:
                tracer.restore()
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            result["layers"] = _layer_metrics(tracer)
            result["spans"] = tracer.write_spans(os.path.join(args.out, "spans.json"))
        result["controls"] = negative_controls(args.workload)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
