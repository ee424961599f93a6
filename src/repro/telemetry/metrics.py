"""Process-local metrics registry: counters, gauges and histograms.

The counting half of the telemetry layer.  Unlike spans (opt-in per
execution), metrics are **always on** — incrementing an integer in a
dict is cheap enough to leave unguarded — and are read out with
:func:`metrics_snapshot`.  Pool workers return a baseline-diffed delta
of their own registry with each shard's result, and the parent folds it
in with :func:`merge_snapshot`, so a snapshot taken after a pooled run
covers the whole pool.

Metric identity is ``name`` plus an optional sorted label mapping,
rendered as ``name{k=v,...}`` in snapshots.  Three instrument kinds:

- counter — monotonically increasing int (``inc``)
- gauge — last-written value (``set_gauge``)
- histogram — running count/sum/min/max of observations (``observe``)

Like the rest of the telemetry layer, metrics never touch the RNG path
and never raise into caller code.
"""

from __future__ import annotations

import threading

__all__ = [
    "clear_metrics",
    "inc",
    "merge_snapshot",
    "metrics_baseline",
    "metrics_delta",
    "metrics_snapshot",
    "observe",
    "set_gauge",
]

_LOCK = threading.Lock()
_COUNTERS: dict[str, int] = {}
_GAUGES: dict[str, float] = {}
_HISTOGRAMS: dict[str, dict] = {}


def _key(name: str, labels: dict | None) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def inc(name: str, amount: int = 1, **labels) -> None:
    """Add ``amount`` to a counter (created at zero on first use)."""
    key = _key(name, labels)
    with _LOCK:
        _COUNTERS[key] = _COUNTERS.get(key, 0) + int(amount)


def set_gauge(name: str, value: float, **labels) -> None:
    """Set a gauge to ``value`` (last write wins)."""
    key = _key(name, labels)
    with _LOCK:
        _GAUGES[key] = float(value)


def observe(name: str, value: float, **labels) -> None:
    """Record one observation into a histogram."""
    key = _key(name, labels)
    value = float(value)
    with _LOCK:
        h = _HISTOGRAMS.get(key)
        if h is None:
            _HISTOGRAMS[key] = {
                "count": 1,
                "sum": value,
                "min": value,
                "max": value,
            }
        else:
            h["count"] += 1
            h["sum"] += value
            if value < h["min"]:
                h["min"] = value
            if value > h["max"]:
                h["max"] = value


def metrics_snapshot() -> dict:
    """A deep copy of the registry: counters/gauges/histograms dicts."""
    with _LOCK:
        return {
            "counters": dict(_COUNTERS),
            "gauges": dict(_GAUGES),
            "histograms": {k: dict(v) for k, v in _HISTOGRAMS.items()},
        }


def metrics_baseline() -> dict:
    """Alias of :func:`metrics_snapshot` named for the worker protocol.

    Workers snapshot at shard start and ship ``metrics_delta(baseline)``
    back, so only the shard's own activity crosses the process boundary.
    """
    return metrics_snapshot()


def metrics_delta(baseline: dict) -> dict:
    """The registry's change since ``baseline`` (a prior snapshot).

    Counter deltas subtract; gauges report their current value when it
    changed; histogram deltas carry count/sum only (min/max are not
    invertible across a baseline, and downstream merges only need the
    additive parts).
    """
    now = metrics_snapshot()
    base_counters = baseline.get("counters", {})
    counters = {}
    for key, value in now["counters"].items():
        d = value - base_counters.get(key, 0)
        if d:
            counters[key] = d
    base_gauges = baseline.get("gauges", {})
    gauges = {
        k: v for k, v in now["gauges"].items() if base_gauges.get(k) != v
    }
    base_hists = baseline.get("histograms", {})
    histograms = {}
    for key, h in now["histograms"].items():
        prev = base_hists.get(key, {"count": 0, "sum": 0.0})
        d_count = h["count"] - prev.get("count", 0)
        if d_count:
            histograms[key] = {
                "count": d_count,
                "sum": h["sum"] - prev.get("sum", 0.0),
            }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def merge_snapshot(delta: dict) -> None:
    """Fold a worker's :func:`metrics_delta` into this process's registry.

    Counters and histogram count/sum add; gauges last-write-win;
    histogram min/max extend only when the delta carries them (full
    snapshots merge losslessly, baseline diffs merge additively).
    """
    if not delta:
        return
    with _LOCK:
        for key, value in delta.get("counters", {}).items():
            _COUNTERS[key] = _COUNTERS.get(key, 0) + int(value)
        for key, value in delta.get("gauges", {}).items():
            _GAUGES[key] = float(value)
        for key, h in delta.get("histograms", {}).items():
            mine = _HISTOGRAMS.get(key)
            if mine is None:
                mine = _HISTOGRAMS[key] = {
                    "count": 0,
                    "sum": 0.0,
                    "min": h.get("min", float("inf")),
                    "max": h.get("max", float("-inf")),
                }
            mine["count"] += int(h.get("count", 0))
            mine["sum"] += float(h.get("sum", 0.0))
            if "min" in h and h["min"] < mine["min"]:
                mine["min"] = h["min"]
            if "max" in h and h["max"] > mine["max"]:
                mine["max"] = h["max"]


def clear_metrics() -> None:
    """Reset the registry (test isolation; never called by library code)."""
    with _LOCK:
        _COUNTERS.clear()
        _GAUGES.clear()
        _HISTOGRAMS.clear()
