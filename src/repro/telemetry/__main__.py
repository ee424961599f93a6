"""Telemetry CLI: ``python -m repro.telemetry <command>``.

Commands:

- ``report <records.jsonl>`` — aggregate a JSONL record sink into
  per-method wall-clock stats and batch/fault totals.  A missing or
  unreadable sink exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.telemetry.records import iter_records, summarize_records


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
        if batches["faults"]:
            faults = ", ".join(
                f"{k}={v}" for k, v in sorted(batches["faults"].items())
            )
            print(f"  faults: {faults}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Aggregate persisted telemetry records.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="aggregate a JSONL record sink")
    report.add_argument("records", help="path to records.jsonl")
    report.add_argument(
        "--json", action="store_true", help="emit the summary as JSON"
    )
    report.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
