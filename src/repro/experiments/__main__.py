"""Command-line entry point: ``python -m repro.experiments <name>``."""

from __future__ import annotations

import argparse
import sys
import time

from repro.backends.engine import METHODS
from repro.experiments import (
    ExperimentConfig,
    convergence,
    fig4,
    fig5,
    fig6,
    table1,
    table2,
)

DRIVERS = {
    "table1": table1,
    "table2": table2,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "convergence": convergence,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
        epilog="Exits with status 1 when any paper shape check or "
        "calibration check reports a violation.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(DRIVERS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced iterations/shots for a fast smoke run",
    )
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--shots", type=int, default=1024)
    parser.add_argument("--maxiter", type=int, default=50)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for multi-circuit batches (today the "
        "PO search's); single evaluations run inline, and results are "
        "seed-identical for any value",
    )
    parser.add_argument(
        "--method",
        # the engine's method table is the one list of valid names
        choices=METHODS,
        default="auto",
        help="simulation method: auto picks, per circuit, statevector "
        "when no noise touches the state and density_matrix otherwise "
        "(see PERFORMANCE.md)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="collect an execution trace and write the span tree as "
        "JSON to PATH (see TELEMETRY.md; results are byte-identical "
        "with or without tracing)",
    )
    parser.add_argument(
        "--telemetry-records",
        metavar="PATH",
        default=None,
        help="append one JSONL telemetry record per execution to PATH "
        "(a directory gets records.jsonl inside); inspect with "
        "'python -m repro.telemetry report'",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    config = ExperimentConfig(
        shots=args.shots,
        maxiter=args.maxiter,
        seed=args.seed,
        quick=args.quick,
        jobs=args.jobs,
        method=args.method,
    )
    names = sorted(DRIVERS) if args.experiment == "all" else [args.experiment]
    if args.telemetry_records is not None:
        from repro.telemetry import set_record_sink

        sink = set_record_sink(args.telemetry_records)
        print(f"[telemetry records -> {sink}]")
    trace_cm = None
    trace = None
    if args.trace is not None:
        from repro.telemetry import collect_trace

        trace_cm = collect_trace(args.experiment)
        trace = trace_cm.__enter__()
    try:
        failed = _run_experiments(names, config)
    finally:
        if trace_cm is not None:
            trace_cm.__exit__(None, None, None)
            trace.save(args.trace)
            print(f"[trace ({sum(1 for _ in trace.iter_spans())} spans) "
                  f"-> {args.trace}]")
    return 1 if failed else 0


def _run_experiments(names: list[str], config: ExperimentConfig) -> bool:
    """Run and print every driver; True when any check reported a
    violation."""
    failed = False
    for name in names:
        driver = DRIVERS[name]
        start = time.time()
        result = driver.run(config)
        elapsed = time.time() - start
        print(driver.render(result))
        print(f"[{name} completed in {elapsed:.1f} s]")
        checks = getattr(driver, "shape_checks", None)
        if checks is not None:
            violations = checks(result)
            if violations:
                failed = True
                print("SHAPE-CHECK VIOLATIONS:")
                for violation in violations:
                    print(f"  - {violation}")
            else:
                print("all paper shape checks passed")
        verify = getattr(driver, "verify", None)
        if verify is not None:
            mismatches = verify(result)
            if mismatches:
                failed = True
                print("CALIBRATION MISMATCHES:")
                for mismatch in mismatches:
                    print(f"  - {mismatch}")
            else:
                print("calibration data matches the paper exactly")
        print()
    return failed


if __name__ == "__main__":
    sys.exit(main())
