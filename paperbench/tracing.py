"""Layer timing from outside the program: an in-memory span recorder and
the wrappers that feed it.

A *probe* names one public function of the program and how to time it:

* ``span`` probes open a span (name, start, end, parent) around every
  call, so nested calls form one chain per workload;
* ``hot`` probes wrap calls too frequent to span (density-matrix passes,
  pulse unitaries); they add to a counter and a time total, and their
  time is charged to the enclosing span so its self time excludes it.

:func:`installed` swaps the wrappers in and always restores the original
attributes on exit, so code run after it carries no wrapper.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    #: time of hot (counted, unspanned) calls made directly under this span
    hot: float = 0.0
    #: work items the call handled (circuits for an evaluate span)
    items: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans and counters of one run, kept in memory until written out."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        #: hot-call counts, full-state passes, and bytes, by probe name
        self.calls: Counter = Counter()
        self.passes: Counter = Counter()
        self.bytes: Counter = Counter()
        self.hot_seconds: defaultdict = defaultdict(float)

    def enter(self, name: str, items: int = 1) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, items=items))
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    @contextmanager
    def span(self, name: str, items: int = 1) -> Iterator[int]:
        index = self.enter(name, items)
        try:
            yield index
        finally:
            self.exit(index)

    def add_hot(
        self, name: str, seconds: float, passes: int = 0, nbytes: int = 0
    ) -> None:
        self.calls[name] += 1
        self.passes[name] += passes
        self.bytes[name] += nbytes
        self.hot_seconds[name] += seconds
        if self._stack:
            self.spans[self._stack[-1]].hot += seconds

    def as_json(self) -> dict:
        return {
            "spans": [
                [s.name, s.start, s.end, s.parent, s.hot, s.items]
                for s in self.spans
            ],
            "calls": dict(self.calls),
            "passes": dict(self.passes),
            "bytes": dict(self.bytes),
            "hot_seconds": dict(self.hot_seconds),
        }


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus what its children and hot calls cover."""
    children: defaultdict = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        inner = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[index]
        ]
        out.append(span.duration - _covered(inner) - span.hot)
    return out


def totals_by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, inclusive ``total`` and ``self`` seconds."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total": 0.0, "self": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        entry = out[span.name]
        entry["count"] += 1
        entry["total"] += span.duration
        entry["self"] += own
    return dict(out)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Probe:
    """Wrap ``owner.attr`` (a class or module attribute) as ``name``."""

    owner: object
    attr: str
    name: str
    #: "span" or "hot"
    kind: str = "span"
    #: span probes: work items of one call, from (args, kwargs)
    items: Callable[[tuple, dict], int] | None = None
    #: hot probes: (full-state passes, bytes moved) of one call
    work: Callable[[tuple, dict], tuple[int, int]] | None = None


def _wrap(func: Callable, probe: Probe, recorder: Recorder) -> Callable:
    if probe.kind == "span":
        items = probe.items

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            index = recorder.enter(
                probe.name, items(args, kwargs) if items else 1
            )
            try:
                return func(*args, **kwargs)
            finally:
                recorder.exit(index)

        return spanned
    if probe.kind == "hot":
        work = probe.work
        clock = recorder.clock

        @functools.wraps(func)
        def counted(*args, **kwargs):
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                passes, nbytes = work(args, kwargs) if work else (0, 0)
                recorder.add_hot(probe.name, clock() - start, passes, nbytes)

        return counted
    raise ValueError(f"unknown probe kind {probe.kind!r}")


@contextmanager
def installed(probes: Iterable[Probe], recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every probe's attribute for the duration of the block."""
    saved: list[tuple[object, str, object]] = []
    try:
        for probe in probes:
            original = vars(probe.owner)[probe.attr]
            saved.append((probe.owner, probe.attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    _wrap(original.__func__, probe, recorder)
                )
            else:
                wrapped = _wrap(original, probe, recorder)
            setattr(probe.owner, probe.attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
