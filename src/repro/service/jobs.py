"""Picklable execution-job specifications.

The execution service ships work to process-pool workers, so everything
that crosses the process boundary is a plain, picklable *spec*:

* :class:`CircuitJob` — one circuit + shot budget + an already-resolved
  shot seed.  The seed is resolved **before** sharding, so results are
  byte-identical no matter how many workers the job lands on;
* :class:`SweepJob` — a parameter sweep: many circuits sharing shots and
  noise flags, with per-circuit seeds derived deterministically from one
  base seed.

Seed-derivation rule (documented in SERVICE.md): ``SweepJob(seed=s)``
gives circuit ``i`` the seed ``derive_seed(s, "job", i)``; an explicit
``seeds`` list overrides the derivation one-for-one.  ``None`` seeds stay
``None`` (fresh entropy, never stored).

:func:`job_fingerprint` turns a job into the stable content hash the
on-disk result store keys by.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.backends.engine import (
    check_method_name,
    method_descriptor,
    resolve_trajectory_request,
)
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import PulseGate, UnitaryGate
from repro.exceptions import BackendError
from repro.utils.cache import (
    LRUCache,
    UnhashableKey,
    cache_key,
    schedule_key,
)
from repro.utils.rng import derive_seed

__all__ = [
    "CircuitJob",
    "JobFailure",
    "SweepJob",
    "backend_config_digest",
    "circuit_fingerprint",
    "derive_job_seeds",
    "describe_job",
    "job_fingerprint",
]


def derive_job_seeds(
    seed: int | None, count: int
) -> list[int | None]:
    """Per-job seeds for a ``count``-circuit sweep under base ``seed``."""
    return [derive_seed(seed, "job", index) for index in range(count)]


@dataclass(frozen=True)
class CircuitJob:
    """One circuit execution: the unit the scheduler shards.

    ``seed`` is the final shot seed (no further derivation happens on the
    worker), so a job is fully reproducible in any process.  ``tag`` is
    free-form caller bookkeeping that rides along into the result
    metadata.

    ``method`` selects the simulation back-end (see
    :func:`repro.backends.engine.select_method`); ``trajectories`` pins
    the trajectory count of the trajectory back-end, or requests
    adaptive allocation with ``"auto"`` (``target_error`` sets the
    precision the adaptive run stops at; adaptive jobs never fan out as
    slices — the total count is only known once the run converges).
    ``trajectory_slice`` marks a *sub-job*: the service fans one
    trajectory job out as ``[a, b)`` slices across workers and merges
    the partial counts — per-trajectory RNG derivation makes the merge
    independent of the split, so sub-jobs never carry their own store
    identity.  ``trajectory_batch`` bounds the batched kernel's stack
    width; it never enters the store key because counts are
    byte-identical for every batch size (batched and sequential
    execution may share one cached result by design).
    ``stabilizer_shot_batch`` is the tableau back-end's analogue — how
    many shots the phase-batched packed kernel stacks per round — and
    is excluded from the store key for the same reason.
    """

    circuit: QuantumCircuit
    shots: int = 1024
    seed: int | None = None
    with_noise: bool = True
    with_readout_error: bool = True
    tag: object = None
    method: str = "auto"
    trajectories: int | str | None = None
    target_error: float | None = None
    trajectory_slice: tuple[int, int] | None = None
    trajectory_batch: int | None = None
    stabilizer_shot_batch: int | None = None

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise BackendError("shots must be positive")
        # one source of truth for the method-name and trajectory-knob
        # rules: the same registry/engine checks execution applies.  A
        # custom back-end's method is valid here as soon as it is
        # registered (repro.simulators.registry.register_method).
        check_method_name(self.method)
        resolve_trajectory_request(
            self.trajectories, self.target_error, self.shots
        )
        if self.trajectory_batch is not None and self.trajectory_batch < 1:
            raise BackendError("trajectory_batch must be >= 1")
        if (
            self.stabilizer_shot_batch is not None
            and self.stabilizer_shot_batch < 1
        ):
            raise BackendError("stabilizer_shot_batch must be >= 1")

    @property
    def deterministic(self) -> bool:
        """Whether re-running this job must reproduce the same counts.

        Generator seeds are stateful (consumed by the run), so only plain
        integer seeds qualify for the content-addressed store.
        """
        return isinstance(self.seed, (int, np.integer))


def describe_job(job: CircuitJob) -> str:
    """A short human identity for ``job`` in diagnostics.

    Used when a fanned-out slice sub-job fails on a worker: the raised
    error must name the *parent* job the slice belongs to, not just the
    slice, or the caller cannot tell which of their submissions died.
    """
    circuit_name = getattr(job.circuit, "name", None) or "circuit"
    parts = [
        f"{circuit_name}[{job.circuit.num_qubits}q]",
        f"shots={job.shots}",
        f"seed={job.seed}",
    ]
    if job.tag is not None:
        parts.append(f"tag={job.tag!r}")
    return " ".join(parts)


@dataclass(frozen=True)
class JobFailure:
    """The record of one quarantined job — picklable and JSON-friendly.

    Carried by :class:`~repro.exceptions.QuarantineError` and surfaced
    in ``metadata["service"]["faults"]["quarantined"]`` so a caller can
    tell exactly which submissions died, why, and after how many
    attempts — while the rest of the batch completed normally.
    """

    index: int
    description: str
    error: str
    attempts: int

    @classmethod
    def from_exception(
        cls, index: int, job: CircuitJob, exc: BaseException, attempts: int
    ) -> "JobFailure":
        return cls(
            index=int(index),
            description=describe_job(job),
            error=f"{type(exc).__name__}: {exc}",
            attempts=int(attempts),
        )

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "description": self.description,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass
class SweepJob:
    """A batch of circuits sharing shots/noise flags (one sweep).

    Either give ``seeds`` explicitly (one per circuit) or a scalar
    ``seed`` from which per-circuit seeds derive via
    ``derive_seed(seed, "job", i)``.
    """

    circuits: Sequence[QuantumCircuit]
    shots: int = 1024
    seed: int | None = None
    seeds: Sequence[int | None] | None = None
    with_noise: bool = True
    with_readout_error: bool = True
    tag: object = None
    method: str = "auto"
    trajectories: int | str | None = None
    target_error: float | None = None
    trajectory_batch: int | None = None
    stabilizer_shot_batch: int | None = None
    _resolved: list[CircuitJob] | None = field(
        default=None, repr=False, compare=False
    )

    def resolved_seeds(self) -> list[int | None]:
        if self.seeds is not None:
            if len(self.seeds) != len(self.circuits):
                raise BackendError(
                    f"{len(self.seeds)} seeds for "
                    f"{len(self.circuits)} circuits"
                )
            return list(self.seeds)
        return derive_job_seeds(self.seed, len(self.circuits))

    def jobs(self) -> list[CircuitJob]:
        """Expand into per-circuit :class:`CircuitJob` specs."""
        if self._resolved is None:
            self._resolved = [
                CircuitJob(
                    circuit=circuit,
                    shots=self.shots,
                    seed=circuit_seed,
                    with_noise=self.with_noise,
                    with_readout_error=self.with_readout_error,
                    tag=self.tag,
                    method=self.method,
                    trajectories=self.trajectories,
                    target_error=self.target_error,
                    trajectory_batch=self.trajectory_batch,
                    stabilizer_shot_batch=self.stabilizer_shot_batch,
                )
                for circuit, circuit_seed in zip(
                    self.circuits, self.resolved_seeds()
                )
            ]
        return self._resolved

    def __len__(self) -> int:
        return len(self.circuits)


# ---------------------------------------------------------------------------
# content addressing
# ---------------------------------------------------------------------------

def _instruction_parts(inst) -> tuple:
    op = inst.operation
    parts: list[object] = [
        type(op).__name__,
        op.name,
        tuple(inst.qubits),
        tuple(inst.clbits),
    ]
    if op.params:
        if op.is_parameterized:
            raise UnhashableKey(
                f"{op.name} has unbound parameters"
            )
        parts.append(cache_key(*op.float_params()))
    if isinstance(op, UnitaryGate):
        parts.append(cache_key(op.matrix()))
    if isinstance(op, PulseGate):
        schedule = getattr(op, "schedule", None)
        if schedule is not None:
            parts.append(schedule_key(schedule))
        parts.append(bool(getattr(op, "calibrated", False)))
    unitary = getattr(op, "unitary", None)
    if unitary is not None:
        parts.append(cache_key(np.asarray(unitary, dtype=complex)))
    return tuple(parts)


def circuit_fingerprint(circuit: QuantumCircuit) -> tuple:
    """A stable, hashable structural key of a bound circuit.

    Raises :class:`~repro.utils.cache.UnhashableKey` for circuits with
    unbound parameters — those cannot be content-addressed.
    """
    return (
        circuit.num_qubits,
        circuit.num_clbits,
        tuple(
            _instruction_parts(inst) for inst in circuit.instructions
        ),
    )


#: attributes holding *derived* state — memo fields that lazily populate
#: during execution (distance matrices, superoperator contractions) and
#: must not make a warmed backend digest differently than a fresh one
_DERIVED_ATTRS = frozenset(
    {"_repro_caches", "_distance", "_superop", "_inverse"}
)


def _canonical_state(value: object, depth: int = 0) -> object:
    """Recursively canonicalise configuration state for hashing.

    Caches and lazily-derived memo attributes are skipped so the digest
    depends only on configuration, never on what has already executed.
    """
    if depth > 16:
        raise BackendError("configuration graph too deep to digest")
    if value is None or isinstance(
        value, (bool, int, float, complex, str, bytes)
    ):
        return value
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return (
            "dict",
            tuple(
                sorted(
                    (repr(k), _canonical_state(v, depth + 1))
                    for k, v in value.items()
                    if not isinstance(v, LRUCache)
                )
            ),
        )
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_state(v, depth + 1) for v in value)
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(repr(v) for v in value)))
    if isinstance(value, nx.Graph):
        return (
            "graph",
            tuple(sorted(map(repr, value.nodes))),
            tuple(sorted(map(repr, value.edges))),
        )
    if hasattr(value, "__dict__"):
        return (
            type(value).__name__,
            tuple(
                (key, _canonical_state(attr, depth + 1))
                for key, attr in sorted(value.__dict__.items())
                if key not in _DERIVED_ATTRS
                and not isinstance(attr, LRUCache)
            ),
        )
    return (type(value).__name__, repr(value))


def backend_config_digest(backend) -> str:
    """Hash of the backend's physics configuration.

    Two same-named backends with different noise/device/target settings
    (e.g. an in-place-modified fake) must never collide in a shared
    result store, so the store key folds in this digest.  Caches and
    lazily-derived memo state are excluded — a warmed backend digests
    identically to a fresh one with the same configuration, keeping
    store keys stable across runs and processes.
    """
    parts: list[object] = [
        type(backend).__name__,
        getattr(backend, "name", ""),
    ]
    for attr in ("target", "noise_model", "device"):
        parts.append(
            _canonical_state(getattr(backend, attr, None))
        )
    payload = repr(tuple(parts)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def job_fingerprint(
    job: CircuitJob,
    backend_key: str,
    resolved_method: str | None = None,
) -> str | None:
    """SHA-256 content hash for the result store, or ``None``.

    ``None`` means the job is not storable: unseeded (non-deterministic),
    structurally unkeyable (unbound parameters), or a trajectory
    *sub-job* (a slice of a fan-out — only the merged whole has a store
    identity).  The hash covers the backend identity (``backend_key`` —
    name plus :func:`backend_config_digest`, as built by the service),
    the full circuit structure, shots, seed, noise flags and the
    simulation-method fields — everything the sampled counts depend on.
    ``trajectory_batch`` and ``stabilizer_shot_batch`` are deliberately
    **excluded**: both batched kernels are byte-identical to their
    sequential paths at every batch size, so batched and sequential
    runs of the same job may serve each other's cached counts without
    ever aliasing a different result.
    ``trajectories="auto"`` jobs *are* keyed (by the ``"auto"`` marker
    plus ``target_error``): an adaptive run is a deterministic function
    of the seed, and its resolved count depends on the target.  The
    knobs are normalised through
    :func:`~repro.backends.engine.resolve_trajectory_request` first, so
    equivalent requests — ``trajectories=None`` vs the explicit default
    count, bare ``target_error=`` vs ``trajectories="auto"`` — collapse
    to one key and share cached results.

    ``resolved_method`` should carry the *concrete* method ``"auto"``
    resolves to (the service resolves it via
    :func:`~repro.backends.engine.select_method`): the sampled counts
    depend on what actually ran, and the auto policy's answer can change
    with the configurable qubit budgets — the literal string ``"auto"``
    would let a store hit serve counts from a different back-end.

    The hash also folds in the resolved method's **descriptor version**
    (fingerprint v4): registry descriptors bump their ``version`` when
    a back-end's seeded sampling semantics change, which retires every
    stored result the old semantics produced without touching any other
    method's entries.
    """
    if not job.deterministic:
        return None
    if job.trajectory_slice is not None:
        return None
    try:
        fingerprint = circuit_fingerprint(job.circuit)
    except UnhashableKey:
        return None
    fixed_count, target_error = resolve_trajectory_request(
        job.trajectories, job.target_error, job.shots
    )
    trajectories = "auto" if fixed_count is None else int(fixed_count)
    resolved = str(resolved_method or job.method)
    try:
        descriptor_version = method_descriptor(resolved).version
    except BackendError:
        # "auto" that never resolved (non-engine backend): keyed by the
        # literal string alone, exactly as before the registry
        descriptor_version = None
    payload = repr(
        (
            "repro-service-v4",
            backend_key,
            fingerprint,
            int(job.shots),
            int(job.seed),
            bool(job.with_noise),
            bool(job.with_readout_error),
            resolved,
            descriptor_version,
            trajectories,
            target_error,
        )
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
