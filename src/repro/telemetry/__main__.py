"""Telemetry CLI: ``python -m repro.telemetry <command>``.

Commands:

- ``report <records.jsonl>`` — aggregate a JSONL record sink into
  per-method wall-clock stats and batch totals.  A missing or
  unreadable sink exits nonzero.
- ``profile <trace.json>`` — per span name of a saved trace tree
  (``repro-telemetry-trace-v1``, as ``--trace`` writes it): call count,
  total wall time and self time (wall minus the children's wall),
  busiest self time first.  A missing, unreadable or malformed trace
  exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.telemetry.records import iter_records, summarize_records
from repro.telemetry.spans import TRACE_FORMAT


def _cmd_report(args) -> int:
    # iter_records skips an unreadable sink so a library reader never
    # fails a run; the CLI must say so instead of reporting 0 records
    try:
        with open(args.records, encoding="utf-8"):
            pass
    except OSError as exc:
        print(f"cannot read {args.records}: {exc}", file=sys.stderr)
        return 1
    summary = summarize_records(iter_records(args.records))
    if args.json:
        json.dump(summary, sys.stdout, indent=2, sort_keys=True)
        print()
        return 0
    print(f"telemetry records: {summary['total_records']}")
    if summary["methods"]:
        print("per method/qubits (execute records):")
        for key, stats in summary["methods"].items():
            mean = stats["wall_seconds"] / max(1, stats["count"])
            print(
                f"  {key}: {stats['count']} runs, "
                f"mean {mean * 1e3:.2f} ms, "
                f"max {stats['max_wall_seconds'] * 1e3:.2f} ms"
            )
    batches = summary["batches"]
    if batches["count"]:
        print(
            f"batches: {batches['count']} runs, {batches['jobs']} jobs, "
            f"{batches['wall_seconds']:.2f} s total"
        )
    return 0


def profile_trace(payload: dict) -> dict[str, dict]:
    """``{name: {"count", "total_seconds", "self_seconds"}}`` of a saved
    trace, sorted by self time, largest first."""
    if not isinstance(payload, dict) or payload.get("format") != TRACE_FORMAT:
        raise ValueError(f"not a {TRACE_FORMAT} trace")
    rows: dict[str, dict] = {}
    stack = list(payload["roots"])
    while stack:
        span = stack.pop()
        children = span["children"]
        row = rows.setdefault(
            span["name"],
            {"count": 0, "total_seconds": 0.0, "self_seconds": 0.0},
        )
        row["count"] += 1
        row["total_seconds"] += span["wall_seconds"]
        row["self_seconds"] += span["wall_seconds"] - sum(
            child["wall_seconds"] for child in children
        )
        stack.extend(children)
    return dict(
        sorted(rows.items(), key=lambda item: -item[1]["self_seconds"])
    )


def _cmd_profile(args) -> int:
    try:
        with open(args.trace, encoding="utf-8") as handle:
            rows = profile_trace(json.load(handle))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot read {args.trace}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        json.dump(rows, sys.stdout, indent=2)
        print()
        return 0
    print(f"{'span':<32} {'count':>7} {'total s':>10} {'self s':>10}")
    for name, row in rows.items():
        print(
            f"{name:<32} {row['count']:>7} {row['total_seconds']:>10.4f} "
            f"{row['self_seconds']:>10.4f}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Aggregate persisted telemetry records and traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="aggregate a JSONL record sink")
    report.add_argument("records", help="path to records.jsonl")
    report.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    report.set_defaults(fn=_cmd_report)

    profile = sub.add_parser(
        "profile", help="per-span count, total and self time of a trace"
    )
    profile.add_argument("trace", help="path to a --trace JSON file")
    profile.add_argument(
        "--json", action="store_true", help="emit the profile as JSON"
    )
    profile.set_defaults(fn=_cmd_profile)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
