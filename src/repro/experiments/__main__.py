"""Command-line entry point: ``python -m repro.experiments <name>``."""

from __future__ import annotations

import argparse
import sys
import time

from repro.backends.engine import method_names
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


def _trajectories_arg(value: str):
    """``--trajectories`` accepts an integer count or the word 'auto'."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None


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
        help="worker processes for batched circuit evaluations; "
        "results are seed-identical for any value",
    )
    parser.add_argument(
        "--method",
        # the registry is the source of truth: a back-end registered at
        # import time (plugins included) is immediately a valid choice
        choices=method_names(include_auto=True),
        default="auto",
        help="simulation method: auto picks the cheapest registered "
        "back-end whose capability predicate accepts the circuit "
        "(see PERFORMANCE.md)",
    )
    parser.add_argument(
        "--trajectories",
        type=_trajectories_arg,
        default=None,
        metavar="N|auto",
        help="trajectory count for method=trajectory: an integer pins "
        "it (default: min(shots, 128)); 'auto' adapts the count per "
        "circuit until --target-error is met",
    )
    parser.add_argument(
        "--target-error",
        type=float,
        default=None,
        help="counts-distribution standard error adaptive trajectory "
        "allocation stops at (implies --trajectories auto; "
        "default 0.02 when auto is requested bare)",
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
    if isinstance(args.trajectories, int) and args.trajectories < 1:
        parser.error("--trajectories must be >= 1 or 'auto'")
    if args.target_error is not None:
        if args.target_error <= 0:
            parser.error("--target-error must be > 0")
        if isinstance(args.trajectories, int):
            parser.error(
                "--target-error requires --trajectories auto "
                "(or omitting --trajectories)"
            )

    config = ExperimentConfig(
        shots=args.shots,
        maxiter=args.maxiter,
        seed=args.seed,
        quick=args.quick,
        jobs=args.jobs,
        method=args.method,
        trajectories=args.trajectories,
        target_error=args.target_error,
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
