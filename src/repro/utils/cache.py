"""Memoization layer for the execution hot path.

Pulse calibrations, channel propagators and noise channels are pure
functions of their (hashable-ised) arguments, yet the machine-in-loop
training loop recomputes them on every cost evaluation.  This module
provides the shared plumbing:

* :class:`LRUCache` — a bounded mapping with hit/miss statistics used by
  every memoized component;
* :func:`device_cache` — per-object cache storage (calibration results
  live with the :class:`~repro.hamiltonian.system.DeviceModel` they were
  derived from, so two devices never share entries);
* key builders (:func:`waveform_key`, :func:`timeline_key`,
  :func:`payload_timeline_key`, :func:`schedule_key`) that turn pulse
  IR into hashable cache keys, raising :class:`UnhashableKey` for
  parameterized input so callers can fall back to the uncached path;
* :func:`caching_disabled` — a context manager that turns every
  :class:`LRUCache` into a pass-through, used by the benchmarks to time
  the seed (cache-free) path honestly.

Invalidation rules are documented in ``PERFORMANCE.md``: the drive,
CR, calibration and virtual-Z memos key on the pulse parameters and on
the device physics they read, so an in-place device edit is seen by the
next lookup.  The dense reference solver keys on qubit indices
(:func:`clear_object_caches` drops its entries), and the per-pair memos
of ``PulseEfficientRZZ`` and ``PulseLevelModel`` hold what was solved
when they were built (build new ones after editing a device in place).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from collections.abc import Callable, Hashable

import numpy as np

__all__ = [
    "LRUCache",
    "UnhashableKey",
    "cache_key",
    "cache_stats_totals",
    "caching_disabled",
    "caching_enabled",
    "clear_object_caches",
    "device_cache",
    "global_cache_stats",
    "payload_timeline_key",
    "schedule_key",
    "timeline_key",
    "waveform_key",
]

_DISABLED = threading.local()


class UnhashableKey(TypeError):
    """Raised when an object cannot be turned into a stable cache key."""


class caching_disabled:
    """Context manager: every :class:`LRUCache` misses while active.

    Used by the microbenchmarks to time the seed (pre-cache) code path
    without forking the implementation.
    """

    def __enter__(self) -> "caching_disabled":
        _DISABLED.flag = getattr(_DISABLED, "flag", 0) + 1
        return self

    def __exit__(self, *exc) -> None:
        _DISABLED.flag -= 1


def caching_enabled() -> bool:
    """False inside a :class:`caching_disabled` block."""
    return getattr(_DISABLED, "flag", 0) == 0


class LRUCache:
    """Bounded least-recently-used cache with hit/miss counters."""

    #: weak references to all live caches, for global statistics; weak so
    #: short-lived owners (backends, devices) stay collectable
    _registry: list["weakref.ref[LRUCache]"] = []

    def __init__(self, maxsize: int = 256, name: str = "cache") -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.name = name
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        LRUCache._registry.append(weakref.ref(self))

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], object]
    ) -> object:
        """Return the cached value for ``key``, computing it on a miss."""
        if not caching_enabled():
            return compute()
        try:
            value = self._data[key]
        except KeyError:
            pass
        else:
            self._data.move_to_end(key)
            self.hits += 1
            return value
        self.misses += 1
        value = compute()
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)
        return value

    def clear(self) -> None:
        self._data.clear()

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "name": self.name,
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
        }


def global_cache_stats() -> list[dict]:
    """Statistics of every live :class:`LRUCache`, busiest first."""
    live = []
    dead = []
    for ref in LRUCache._registry:
        cache = ref()
        if cache is None:
            dead.append(ref)
        else:
            live.append(cache.stats())
    for ref in dead:
        LRUCache._registry.remove(ref)
    return sorted(live, key=lambda s: -(s["hits"] + s["misses"]))


def cache_stats_totals() -> dict:
    """Hit/miss totals summed over every live cache.

    The uniform shape the execution service reports per worker:
    ``{"hits": int, "misses": int, "caches": int}``.
    """
    stats = global_cache_stats()
    return {
        "hits": sum(s["hits"] for s in stats),
        "misses": sum(s["misses"] for s in stats),
        "caches": len(stats),
    }


# ---------------------------------------------------------------------------
# per-object cache storage
# ---------------------------------------------------------------------------

_CACHE_ATTR = "_repro_caches"


def device_cache(obj: object, name: str, maxsize: int = 512) -> LRUCache:
    """A named :class:`LRUCache` stored on ``obj`` itself.

    Keeps derived data (calibrations, propagators) tied to the lifetime
    and identity of the object they were computed from, so no global
    registry can confuse two devices.
    """
    caches = obj.__dict__.get(_CACHE_ATTR)
    if caches is None:
        caches = {}
        obj.__dict__[_CACHE_ATTR] = caches
    cache = caches.get(name)
    if cache is None:
        cache = LRUCache(maxsize=maxsize, name=name)
        caches[name] = cache
    return cache


def clear_object_caches(obj: object) -> None:
    """Drop every cache attached to ``obj`` (see PERFORMANCE.md)."""
    caches = obj.__dict__.get(_CACHE_ATTR)
    if caches:
        for cache in caches.values():
            cache.clear()


# ---------------------------------------------------------------------------
# key builders
# ---------------------------------------------------------------------------

def cache_key(*parts: object) -> tuple:
    """Normalise ``parts`` into a hashable tuple.

    Supports the scalar types the pulse stack uses plus numpy arrays
    (hashed by dtype/shape/bytes).  Anything else — in particular
    unbound :class:`~repro.circuits.parameter.ParameterExpression`
    values — raises :class:`UnhashableKey` so callers can skip caching.
    """
    out = []
    for part in parts:
        if isinstance(part, np.ndarray):
            out.append((part.dtype.str, part.shape, part.tobytes()))
        elif isinstance(part, (list, tuple)):
            out.append(cache_key(*part))
        elif part is None or isinstance(
            part, (bool, int, float, complex, str, bytes)
        ):
            out.append(part)
        elif isinstance(part, np.generic):
            out.append(part.item())
        else:
            raise UnhashableKey(f"cannot key {type(part).__name__}: {part!r}")
    return tuple(out)


def waveform_key(waveform: object) -> tuple:
    """Stable key of a bound waveform: type plus numeric attributes."""
    items = []
    for attr, value in sorted(waveform.__dict__.items()):
        items.append(attr)
        items.append(value)
    return (type(waveform).__name__,) + cache_key(*items)


def _payload_key(instruction: object) -> tuple:
    """Key one pulse instruction's type and payload, not its channel."""
    name = type(instruction).__name__
    waveform = getattr(instruction, "waveform", None)
    if waveform is not None:
        return (name, waveform_key(waveform))
    payload = []
    for attr in ("phase", "frequency", "duration"):
        value = getattr(instruction, attr, None)
        if value is not None:
            payload.append((attr,) + cache_key(value))
    return (name, tuple(payload))


def _instruction_key(instruction: object) -> tuple:
    """Key one pulse instruction (channel + payload)."""
    channel = getattr(instruction, "channel", None)
    channel_part = (type(channel).__name__, getattr(channel, "index", None))
    name, payload = _payload_key(instruction)
    return (name, channel_part, payload)


def timeline_key(
    timeline: "list[tuple[int, object]]",
) -> tuple:
    """Key a ``(start, instruction)`` timeline, channels included."""
    return tuple(
        (start, _instruction_key(inst)) for start, inst in timeline
    )


def payload_timeline_key(
    timeline: "list[tuple[int, object]]",
) -> tuple:
    """Key a single-channel timeline by its payloads, not its channel.

    For a solve that plays the timeline on whatever qubit it is given
    (the drive propagator), so the channel's index says nothing the
    caller's physics key does not.
    """
    return tuple(
        (start, _payload_key(inst)) for start, inst in timeline
    )


def schedule_key(schedule: object) -> tuple:
    """Key a whole :class:`~repro.pulse.schedule.Schedule`."""
    return timeline_key(schedule.timed_instructions)
