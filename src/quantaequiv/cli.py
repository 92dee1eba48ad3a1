"""Command line entry point for the suite runner.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 the config
or invocation was invalid, including a grid guard (`GridError`) raised while
a suite runs under a `--config` file.
"""

import argparse
import os
import sys

from .harness import (
    SUITE_NAMES,
    ConfigError,
    default_config,
    emit_tables,
    load_config,
    run_suite,
)
from .rieffel import GridError


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quantaequiv",
        description="run seeded verification suites for the deformation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one suite and write its report")
    run.add_argument("suite", choices=SUITE_NAMES)
    run.add_argument("--config", help="JSON config file; defaults are per suite")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--out", default=".", help="directory for report and tables")
    run.add_argument("--format", choices=("csv", "json"), default="json",
                     dest="table_format", help="numeric table format")

    sub.add_parser("list-suites", help="print the available suite names")
    return parser


def _nearest_existing(path):
    """path itself if it exists, else its nearest existing ancestor, both
    absolute.  Not normalised: "<file>/.." and "<file>/" resolve to <file>."""
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    return path


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return 0 if exc.code in (0, None) else 2

    if args.command == "list-suites":
        for name in SUITE_NAMES:
            print(name)
        return 0

    try:
        if not args.out:
            raise ConfigError("--out must name a directory, not be empty")
        out = os.path.join(os.getcwd(), args.out)
        blocker = _nearest_existing(out)
        if not os.path.isdir(blocker):
            if blocker == out:
                raise ConfigError("--out %s exists and is not a directory" % args.out)
            raise ConfigError("--out %s lies under %s, which is not a directory"
                              % (args.out, blocker))
        if args.config:
            config = load_config(args.config)
            if config["suite"] != args.suite:
                raise ConfigError(
                    "config is for suite %r, not %r" % (config["suite"], args.suite)
                )
        else:
            config = default_config(args.suite)
        if args.seed is not None:
            config["seed"] = args.seed
        report = run_suite(config)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except GridError as exc:
        if not args.config:
            raise  # the default configs are fixed inputs: a guard there is a bug
        print("config error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2

    # the json "tables" are the report itself: write it once either way
    written = emit_tables(report, args.out, "json")
    if args.table_format == "csv":
        written += emit_tables(report, args.out, "csv")

    summary = report["summary"]
    print(
        "%s: %d checks, %d passed, %d failed, %d saturated"
        % (
            report["suite"],
            summary["total"],
            summary["passed"],
            summary["failed"],
            summary["saturated"],
        )
    )
    for path in written:
        print("wrote %s" % path)
    return 1 if summary["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
