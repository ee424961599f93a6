"""Structured execution spans: the tracing half of the telemetry layer.

A *span* is one named, timed region of work (wall clock plus process CPU
time, with free-form attributes); spans nest, and one traced execution
produces a **trace tree** covering circuit planning, method selection,
kernel execution, shard dispatch and worker warm-up (see TELEMETRY.md
for the span schema).

Tracing is **off by default and off the RNG path entirely**: the span
API never draws entropy, never mutates execution state, and every
instrumentation site is a no-op behind a single flag check while no
trace is being collected — results are byte-identical with tracing
enabled or disabled (asserted in ``tests/test_telemetry.py``), and the
enabled-path overhead is bounded by the ``telemetry_overhead`` entry of
``benchmarks/bench_engine.py``.

Usage::

    from repro.telemetry import collect_trace, span

    with collect_trace() as trace:
        backend.run(circuit, shots=1024, seed=7)
    trace.save("trace.json")
    print(render_trace(trace))

Instrumentation sites use :func:`span` (context manager), :func:`traced`
(decorator) or :func:`record_span` (after-the-fact completed span, used
where work overlaps and cannot nest lexically — e.g. shards in flight).

Cross-process spans: pool workers collect their own trace around each
shard and ship the serialized tree back with the shard's result; the
parent grafts it under its ``shard.dispatch`` span (:meth:`Span.graft`),
so one trace tree spans the whole pool.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

from repro.exceptions import ReproError

__all__ = [
    "Span",
    "TelemetryError",
    "Trace",
    "collect_trace",
    "current_span",
    "record_span",
    "render_trace",
    "span",
    "traced",
    "tracing_enabled",
]

#: the ``format`` tag of a saved trace tree (:meth:`Trace.save`)
TRACE_FORMAT = "repro-telemetry-trace-v1"


class TelemetryError(ReproError):
    """Invalid use of the telemetry API (never raised on the hot path)."""


class Span:
    """One named, timed region of a trace tree."""

    __slots__ = (
        "name",
        "attributes",
        "children",
        "started_at",
        "wall_seconds",
        "cpu_seconds",
        "_t0",
        "_c0",
    )

    def __init__(self, name: str, attributes: dict | None = None) -> None:
        self.name = str(name)
        self.attributes: dict = dict(attributes) if attributes else {}
        self.children: list[Span] = []
        self.started_at = time.time()
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()

    def _finish(self) -> None:
        self.wall_seconds = time.perf_counter() - self._t0
        self.cpu_seconds = time.process_time() - self._c0

    def annotate(self, **attributes) -> "Span":
        """Attach (or overwrite) attributes on an open or closed span."""
        self.attributes.update(attributes)
        return self

    # ------------------------------------------------------------------
    # serialization (crosses the pool-worker process boundary)
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "started_at": round(self.started_at, 6),
            "wall_seconds": round(self.wall_seconds, 6),
            "cpu_seconds": round(self.cpu_seconds, 6),
            "attributes": dict(self.attributes),
            "children": [child.as_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        out = cls(payload["name"], payload.get("attributes"))
        out.started_at = float(payload.get("started_at", 0.0))
        out.wall_seconds = float(payload.get("wall_seconds", 0.0))
        out.cpu_seconds = float(payload.get("cpu_seconds", 0.0))
        out.children = [
            cls.from_dict(child) for child in payload.get("children", ())
        ]
        return out

    def graft(self, payloads) -> None:
        """Attach serialized child trees (e.g. from a pool worker)."""
        for payload in payloads or ():
            self.children.append(Span.from_dict(payload))

    # ------------------------------------------------------------------
    def iter_spans(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.wall_seconds * 1e3:.3f} ms, "
            f"{len(self.children)} children)"
        )


class Trace:
    """The collection target of one tracing session."""

    def __init__(self, name: str = "trace") -> None:
        self.name = str(name)
        self.started_at = time.time()
        self.roots: list[Span] = []
        self._lock = threading.Lock()

    def _add_root(self, span_: Span) -> None:
        with self._lock:
            self.roots.append(span_)

    def iter_spans(self):
        """Every span in the trace, depth-first per root."""
        for root in list(self.roots):
            yield from root.iter_spans()

    def find(self, name: str) -> list[Span]:
        """Every span named ``name``, in tree order."""
        return [s for s in self.iter_spans() if s.name == name]

    def as_dict(self) -> dict:
        return {
            "format": TRACE_FORMAT,
            "name": self.name,
            "started_at": round(self.started_at, 6),
            "roots": [root.as_dict() for root in self.roots],
        }

    def save(self, path) -> None:
        """Write the trace tree as JSON (the ``--trace`` CLI format)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2)
            handle.write("\n")

    def __repr__(self) -> str:
        total = sum(1 for _ in self.iter_spans())
        return f"Trace({self.name!r}, {total} spans)"


# ---------------------------------------------------------------------------
# collection state
# ---------------------------------------------------------------------------

#: the active trace, or None — ONE flag check gates every
#: instrumentation site, so disabled tracing costs a global load
_ACTIVE: Trace | None = None
_STATE = threading.local()
_LOCK = threading.Lock()


def tracing_enabled() -> bool:
    """Whether a trace is currently being collected in this process."""
    return _ACTIVE is not None


def current_span() -> Span | None:
    """The innermost open span on this thread, or ``None``."""
    stack = getattr(_STATE, "stack", None)
    return stack[-1] if stack else None


def _push(span_: Span) -> None:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = _STATE.stack = []
    stack.append(span_)


def _pop(span_: Span, trace: Trace) -> None:
    stack = getattr(_STATE, "stack", None)
    if stack and stack[-1] is span_:
        stack.pop()
    span_._finish()
    parent = stack[-1] if stack else None
    if parent is not None:
        parent.children.append(span_)
    else:
        trace._add_root(span_)


@contextmanager
def span(name: str, **attributes):
    """Open a span for the duration of the ``with`` block.

    Yields the open :class:`Span` (for :meth:`~Span.annotate`) while a
    trace is active, else ``None`` — callers must guard attribute
    updates with ``if s:``.
    """
    trace = _ACTIVE
    if trace is None:
        yield None
        return
    s = Span(name, attributes)
    _push(s)
    try:
        yield s
    finally:
        _pop(s, trace)


def traced(name: str | None = None, **attributes):
    """Decorator form of :func:`span` (name defaults to the function's)."""

    def decorate(fn):
        import functools

        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if _ACTIVE is None:
                return fn(*args, **kwargs)
            with span(label, **attributes):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def record_span(
    name: str,
    wall_seconds: float = 0.0,
    cpu_seconds: float = 0.0,
    children=None,
    **attributes,
) -> Span | None:
    """Add an already-completed span under the current span.

    The escape hatch for work that cannot nest lexically: overlapping
    in-flight shards record their dispatch span when the result is
    collected, and instantaneous *events* (a retry, a pool rebuild, a
    quarantine) record with zero duration.  ``children`` takes
    serialized span payloads (a worker's shipped trace) to graft
    underneath.  No-op returning ``None`` while tracing is disabled.
    """
    trace = _ACTIVE
    if trace is None:
        return None
    s = Span(name, attributes)
    s.wall_seconds = float(wall_seconds)
    s.cpu_seconds = float(cpu_seconds)
    s.graft(children)
    parent = current_span()
    if parent is not None:
        parent.children.append(s)
    else:
        trace._add_root(s)
    return s


@contextmanager
def collect_trace(name: str = "trace"):
    """Collect every span opened while the block runs.

    Collection is process-global (any thread's spans land in the same
    trace; spans opened on threads with no enclosing span become
    roots).  Traces do not nest — the span tree of a nested collection
    would be ambiguous — so a second ``collect_trace`` inside an active
    one raises :class:`TelemetryError`.
    """
    global _ACTIVE
    with _LOCK:
        if _ACTIVE is not None:
            raise TelemetryError(
                "a trace is already being collected; traces do not nest"
            )
        trace = Trace(name)
        _ACTIVE = trace
    try:
        yield trace
    finally:
        with _LOCK:
            _ACTIVE = None


def _reset_state() -> None:
    """Drop inherited collection state (fork-started pool workers).

    A forked child that inherits an active trace could never open its
    own ``collect_trace``; the pool initializer calls this so workers
    start clean and opt back in per shard dispatch.
    """
    global _ACTIVE
    with _LOCK:
        _ACTIVE = None
    _STATE.stack = []


def render_trace(trace: Trace, max_depth: int = 6) -> str:
    """A human-readable indented summary of a trace tree."""
    lines = [f"trace {trace.name!r}: {len(trace.roots)} root span(s)"]

    def walk(s: Span, depth: int) -> None:
        if depth > max_depth:
            return
        attrs = ""
        if s.attributes:
            inner = ", ".join(
                f"{k}={v!r}" for k, v in sorted(s.attributes.items())
            )
            attrs = f"  [{inner}]"
        lines.append(
            f"{'  ' * depth}{s.name}: {s.wall_seconds * 1e3:.2f} ms"
            f" (cpu {s.cpu_seconds * 1e3:.2f} ms){attrs}"
        )
        for child in s.children:
            walk(child, depth + 1)

    for root in trace.roots:
        walk(root, 1)
    return "\n".join(lines)
