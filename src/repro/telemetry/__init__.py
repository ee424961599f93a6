"""Unified telemetry layer: spans, metrics, records.

Three cooperating pieces (full schemas and workflow in TELEMETRY.md):

- :mod:`~repro.telemetry.spans` — opt-in per-execution trace trees
  (:func:`collect_trace`, :func:`span`);
- :mod:`~repro.telemetry.metrics` — always-on process-local counters,
  gauges and histograms (:func:`metrics_snapshot`), merged across pool
  workers like cache totals;
- :mod:`~repro.telemetry.records` — opt-in durable JSONL execution
  records (:func:`set_record_sink`), aggregated by the
  ``python -m repro.telemetry report`` CLI.

Everything here is zero-dependency, off the RNG path, and fail-soft:
telemetry can slow an execution down (boundedly — see the
``telemetry_overhead`` bench entry) but never change its results.
"""

from repro.telemetry.metrics import (
    clear_metrics,
    inc,
    merge_snapshot,
    metrics_baseline,
    metrics_delta,
    metrics_snapshot,
    observe,
    set_gauge,
)
from repro.telemetry.records import (
    collect_records,
    iter_records,
    record,
    record_sink,
    recording_enabled,
    set_record_sink,
    summarize_records,
)
from repro.telemetry.spans import (
    Span,
    TelemetryError,
    Trace,
    collect_trace,
    current_span,
    record_span,
    render_trace,
    span,
    traced,
    tracing_enabled,
)

__all__ = [
    "Span",
    "TelemetryError",
    "Trace",
    "clear_metrics",
    "collect_records",
    "collect_trace",
    "current_span",
    "inc",
    "iter_records",
    "merge_snapshot",
    "metrics_baseline",
    "metrics_delta",
    "metrics_snapshot",
    "observe",
    "record",
    "record_sink",
    "record_span",
    "recording_enabled",
    "render_trace",
    "set_gauge",
    "set_record_sink",
    "span",
    "summarize_records",
    "traced",
    "tracing_enabled",
]
