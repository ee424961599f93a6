"""Backend noise models.

A :class:`NoiseModel` collects, per gate name (optionally per qubit tuple),
the Kraus channels applied *after* the ideal gate, plus duration-driven
thermal relaxation parameters and a readout-error model.  The execution
engine queries it instruction by instruction.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.exceptions import NoiseError
from repro.noise.channels import (
    KrausChannel,
    depolarizing_channel,
    thermal_relaxation_channel,
)
from repro.noise.readout import ReadoutError
from repro.utils.cache import LRUCache


class NoiseModel:
    """Gate-keyed noise description.

    Parameters
    ----------
    num_qubits:
        Backend size; per-qubit T1/T2 arrays default to uniform values.
    """

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = num_qubits
        # (gate_name, qubits or None) -> list of channels
        self._gate_errors: dict[
            tuple[str, tuple[int, ...] | None], list[KrausChannel]
        ] = {}
        self.t1: list[float | None] = [None] * num_qubits
        self.t2: list[float | None] = [None] * num_qubits
        self.readout_error: ReadoutError | None = None
        self.dt: float | None = None  # ns per sample, for duration noise
        #: always-on ZZ crosstalk between coupled pairs (GHz)
        self.zz_crosstalk_ghz: float = 0.0
        #: depolarizing error per sample for pulse-defined gates; scales
        #: control-noise with pulse duration so pulse gates pay the same
        #: per-time error budget as their calibrated gate counterparts
        self.pulse_error_per_dt_1q: float = 0.0
        self.pulse_error_per_dt_2q: float = 0.0
        #: parameter-transfer jitter for *uncalibrated* pulses (paper
        #: §IV-C: optimizer-commanded pulse parameters reach the hardware
        #: with variance, unlike vendor-calibrated gates).  Per-execution
        #: random local rotations (rad std per qubit) and, for entangling
        #: pulses, a random kick along the entangling axis.
        self.pulse_jitter_local: float = 0.0
        self.pulse_jitter_entangling: float = 0.0
        # memoized Kraus constructions; every VQA iteration asks for the
        # same (qubit, duration) relaxation and pulse-depolarizing
        # channels, and KrausChannel construction (completeness check
        # included) dominates the duration-noise cost otherwise.
        # Invalidated by set_relaxation / clear_caches.
        self._relaxation_cache = LRUCache(maxsize=1024, name="relaxation")
        self._pulse_channel_cache = LRUCache(maxsize=256, name="pulse_channel")
        self._readout_subset_cache = LRUCache(maxsize=64, name="readout_subset")
        #: the density back-end's evaluation-invariant maps: superoperators
        #: of parameter-free library gates, pairs of single-qubit maps, ZZ
        #: diagonals and their 4ⁿ products, and each circuit structure's
        #: compiled walk.  Keyed by the channel objects and values they
        #: are built from, so add_gate_error / set_relaxation /
        #: clear_caches and edits of the rates change the key instead of
        #: serving a stale entry.
        self.superop_cache = LRUCache(maxsize=1024, name="superop")

    def __getstate__(self) -> dict:
        """Pickle support: the superoperator memo ships empty.

        Everything in it is derived from this model's values and is
        rebuilt on first use.  Its compiled density walks are large
        (a gather plan per pass, a ZZ product per layer) and a pool
        worker mostly walks structures its parent never did, so shipping
        them with the backend only slowed the pool's start.
        """
        state = dict(self.__dict__)
        state["superop_cache"] = LRUCache(
            maxsize=self.superop_cache.maxsize, name=self.superop_cache.name
        )
        return state

    def clear_caches(self) -> None:
        """Drop memoized channels and the superoperators built from them
        (call after mutating noise parameters)."""
        self._relaxation_cache.clear()
        self._pulse_channel_cache.clear()
        self._readout_subset_cache.clear()
        self.superop_cache.clear()

    # ------------------------------------------------------------------
    def add_gate_error(
        self,
        gate_name: str,
        channel: KrausChannel,
        qubits: Sequence[int] | None = None,
    ) -> None:
        """Attach ``channel`` after every ``gate_name`` (on ``qubits``)."""
        key = (gate_name, tuple(qubits) if qubits is not None else None)
        self._gate_errors.setdefault(key, []).append(channel)

    def add_depolarizing_error(
        self,
        gate_name: str,
        error_probability: float,
        num_qubits: int = 1,
        qubits: Sequence[int] | None = None,
    ) -> None:
        """Convenience: attach a depolarizing channel."""
        self.add_gate_error(
            gate_name,
            depolarizing_channel(error_probability, num_qubits),
            qubits,
        )

    def set_relaxation(
        self,
        t1: float | Sequence[float],
        t2: float | Sequence[float],
        dt: float,
    ) -> None:
        """Enable duration-driven thermal relaxation.

        ``t1``/``t2`` are in nanoseconds (scalar or per qubit); ``dt`` is
        the sample time in nanoseconds so instruction durations in samples
        convert to physical time.
        """
        if isinstance(t1, (int, float)):
            t1 = [float(t1)] * self.num_qubits
        if isinstance(t2, (int, float)):
            t2 = [float(t2)] * self.num_qubits
        if len(t1) != self.num_qubits or len(t2) != self.num_qubits:
            raise NoiseError("T1/T2 arrays must match num_qubits")
        self.t1 = [float(v) for v in t1]
        self.t2 = [float(v) for v in t2]
        self.dt = float(dt)
        self._relaxation_cache.clear()

    def set_readout_error(self, readout: ReadoutError) -> None:
        if readout.num_qubits != self.num_qubits:
            raise NoiseError("readout model size mismatch")
        self.readout_error = readout
        self._readout_subset_cache.clear()

    def readout_subset(self, qubits: Sequence[int]) -> ReadoutError | None:
        """Memoized :meth:`ReadoutError.subset` for the measured qubits."""
        if self.readout_error is None:
            return None
        qubits = tuple(qubits)
        return self._readout_subset_cache.get_or_compute(
            qubits, lambda: self.readout_error.subset(qubits)
        )

    # ------------------------------------------------------------------
    def gate_channels(
        self, gate_name: str, qubits: Sequence[int]
    ) -> list[KrausChannel]:
        """Channels to apply after ``gate_name`` on ``qubits``.

        Qubit-specific registrations take precedence over (and are applied
        after) the generic ones.
        """
        out: list[KrausChannel] = []
        out.extend(self._gate_errors.get((gate_name, None), []))
        out.extend(
            self._gate_errors.get((gate_name, tuple(qubits)), [])
        )
        return out

    def gate_errors_key(self) -> tuple:
        """Every registered gate channel as one hashable value.

        Holds the channel objects themselves, so a cache key built from
        it keeps them alive and changes when :meth:`add_gate_error`
        registers another.
        """
        return tuple(
            (key, tuple(channels))
            for key, channels in self._gate_errors.items()
        )

    def pulse_gate_channel(
        self, num_qubits: int, duration_dt: float
    ) -> KrausChannel | None:
        """Duration-scaled depolarizing channel for a pulse gate."""
        rate = (
            self.pulse_error_per_dt_1q
            if num_qubits == 1
            else self.pulse_error_per_dt_2q
        )
        if rate <= 0 or duration_dt <= 0:
            return None
        probability = min(0.9, rate * duration_dt)
        return self._pulse_channel_cache.get_or_compute(
            (num_qubits, probability),
            lambda: depolarizing_channel(probability, num_qubits),
        )

    def relaxation_channel(
        self, qubit: int, duration_dt: float
    ) -> KrausChannel | None:
        """Thermal relaxation for ``duration_dt`` samples on ``qubit``."""
        if self.dt is None or duration_dt <= 0:
            return None
        t1 = self.t1[qubit]
        t2 = self.t2[qubit]
        if t1 is None or t2 is None:
            return None
        time = duration_dt * self.dt
        return self._relaxation_cache.get_or_compute(
            (t1, t2, time),
            lambda: thermal_relaxation_channel(t1, t2, time),
        )

    @property
    def has_relaxation(self) -> bool:
        return self.dt is not None and any(
            t is not None for t in self.t1
        )

    def __repr__(self) -> str:
        return (
            f"NoiseModel({self.num_qubits} qubits, "
            f"{len(self._gate_errors)} gate errors, "
            f"relaxation={'on' if self.has_relaxation else 'off'}, "
            f"readout={'on' if self.readout_error else 'off'})"
        )
