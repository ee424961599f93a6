"""Durable per-execution telemetry records (compact JSONL).

Each recorded execution appends one JSON object per line to a sink
file, by default ``<result-store>/telemetry/records.jsonl``.  Records
are the durable third of the telemetry layer — spans die with the
process, metrics die with the process, records accumulate across runs
and feed the ``python -m repro.telemetry report`` CLI.

Record kinds:

- ``execute`` — one simulated circuit: resolved method, qubits, depth,
  channel count, shots/trajectories, wall/CPU seconds.
- ``batch`` — one service ``run_jobs`` call: job/worker/shard counts,
  fault counters, store hits, wall seconds.

Recording is **opt-in** (:func:`set_record_sink`) and fail-soft: sink
I/O errors are swallowed after the first warning so a full disk can
never fail an execution.  Pool workers never write the sink directly —
they buffer via :func:`collect_records` and ship the buffer home in the
``ShardResult``, so a single parent process owns the file and lines are
never interleaved.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from contextlib import contextmanager

__all__ = [
    "collect_records",
    "iter_records",
    "record",
    "recording_enabled",
    "record_sink",
    "set_record_sink",
    "summarize_records",
]

_LOG = logging.getLogger("repro.telemetry")

_LOCK = threading.Lock()
_SINK: str | None = None
_SINK_WARNED = False
#: in-memory buffer target (worker-side collection), or None
_BUFFER: list[dict] | None = None

RECORDS_FILENAME = "records.jsonl"


def set_record_sink(path) -> str | None:
    """Enable (or with ``None`` disable) persisted telemetry records.

    ``path`` may be a directory — the sink becomes
    ``<path>/records.jsonl`` — or a file path used verbatim.  Parent
    directories are created.  Returns the resolved sink path.
    """
    global _SINK, _SINK_WARNED
    if path is None:
        with _LOCK:
            _SINK = None
            _SINK_WARNED = False
        return None
    path = os.fspath(path)
    if os.path.isdir(path) or not os.path.splitext(path)[1]:
        path = os.path.join(path, RECORDS_FILENAME)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with _LOCK:
        _SINK = path
        _SINK_WARNED = False
    return path


def record_sink() -> str | None:
    """The active sink path, or ``None`` when recording is disabled."""
    return _SINK


def recording_enabled() -> bool:
    """Whether :func:`record` currently lands anywhere."""
    return _SINK is not None or _BUFFER is not None


def record(kind: str, **fields) -> None:
    """Append one telemetry record (no-op unless recording is enabled).

    Floats are rounded to keep lines compact; the ``ts`` wall-clock
    stamp is added here.  Never raises: a failing sink logs one warning
    and subsequent writes are silently dropped.
    """
    global _SINK_WARNED
    buffer = _BUFFER
    sink = _SINK
    if buffer is None and sink is None:
        return
    payload = {"kind": str(kind), "ts": round(time.time(), 3)}
    for key, value in fields.items():
        if isinstance(value, float):
            value = round(value, 6)
        payload[key] = value
    if buffer is not None:
        buffer.append(payload)
        return
    line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    try:
        with _LOCK:
            with open(sink, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
    except OSError as exc:
        with _LOCK:
            if not _SINK_WARNED:
                _SINK_WARNED = True
                _LOG.warning("telemetry record sink failed: %s", exc)


def write_records(payloads) -> None:
    """Persist already-built record payloads (worker buffers, parent side)."""
    for payload in payloads or ():
        payload = dict(payload)
        kind = payload.pop("kind", "unknown")
        payload.pop("ts", None)
        record(kind, **payload)


@contextmanager
def collect_records():
    """Buffer records in memory instead of writing the sink.

    Used by pool workers: the buffered list crosses the process
    boundary in the ``ShardResult`` and the parent persists it with
    :func:`write_records`.  Yields the live list.
    """
    global _BUFFER
    outer = _BUFFER
    buffer: list[dict] = []
    _BUFFER = buffer
    try:
        yield buffer
    finally:
        _BUFFER = outer


def _reset_state() -> None:
    """Drop inherited sink/buffer state (fork-started pool workers).

    Workers must never append the parent's sink file directly — records
    travel home buffered in shard results — so the pool initializer
    clears anything fork carried over.
    """
    global _SINK, _SINK_WARNED, _BUFFER
    with _LOCK:
        _SINK = None
        _SINK_WARNED = False
    _BUFFER = None


def iter_records(path):
    """Yield record dicts from a JSONL sink, skipping torn/corrupt lines.

    A crash mid-append can leave a truncated last line; tolerating bad
    lines (rather than raising) mirrors how the result store degrades
    torn entries to misses.  A missing or unreadable sink yields
    nothing.
    """
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError:
        return
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if not isinstance(payload, dict):
                continue
            yield payload


def summarize_records(records) -> dict:
    """Aggregate records for the ``repro.telemetry report`` CLI.

    Groups ``execute`` records by (method, qubits) with count and
    wall-clock stats, and totals ``batch`` records' fault counters.
    """
    methods: dict[tuple, dict] = {}
    batches = {"count": 0, "jobs": 0, "wall_seconds": 0.0, "faults": {}}
    total = 0
    for payload in records:
        total += 1
        kind = payload.get("kind")
        if kind == "execute":
            key = (str(payload.get("method")), int(payload.get("qubits", 0)))
            bucket = methods.setdefault(
                key,
                {"count": 0, "wall_seconds": 0.0, "max_wall_seconds": 0.0},
            )
            wall = float(payload.get("wall_seconds", 0.0))
            bucket["count"] += 1
            bucket["wall_seconds"] += wall
            if wall > bucket["max_wall_seconds"]:
                bucket["max_wall_seconds"] = wall
        elif kind == "batch":
            batches["count"] += 1
            batches["jobs"] += int(payload.get("jobs", 0))
            batches["wall_seconds"] += float(payload.get("wall_seconds", 0.0))
            for name, value in (payload.get("faults") or {}).items():
                batches["faults"][name] = batches["faults"].get(name, 0) + int(
                    value
                )
    return {
        "total_records": total,
        "methods": {
            f"{method}/q{qubits}": stats
            for (method, qubits), stats in sorted(methods.items())
        },
        "batches": batches,
    }
