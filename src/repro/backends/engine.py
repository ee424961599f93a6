"""Noisy circuit execution with automatic simulation-method dispatch.

The engine uses a synchronous **moment** model: instructions are grouped
into ASAP layers; after each layer's unitaries (and their gate-error
channels) the whole register evolves under duration-driven noise for the
layer's wall-clock length — thermal relaxation per qubit plus the
always-on ZZ crosstalk of coupled pairs.  Measurement applies readout
relaxation for (a fraction of) the readout window, then the per-qubit
assignment-error transform, then multinomial shot sampling.

Only the qubits the circuit actually touches enter the simulation, so
27-qubit devices cost no more than the 6-8 qubits a benchmark uses.

The density-matrix back-end walks those moments **fused**
(:func:`_evolve_density`).  The instructions of one layer act on
disjoint qubits, so everything that happens to a gate's qubits before
the layer's crosstalk — its unitary, its gate or pulse channel, its
jitter kick and the layer's relaxation of its qubits — composes into one
superoperator.  A multi-qubit gate's is applied in a pass of its own;
the layer's single-qubit maps (1-qubit gates and the relaxation of idle
qubits) go two to a pass.  The layer's ZZ crosstalk, a diagonal unitary
on the register, is one elementwise pass applied last (ZZ does not
commute with amplitude damping).  Only operations on disjoint qubits
are reordered, so the result equals the op-by-op walk up to float
rounding.  What does not change between evaluations — the
superoperators of parameter-free gates and idle relaxations, pairs of
them, and the ZZ diagonals — is memoized on the noise model
(``NoiseModel.superop_cache``), keyed by the channel objects it is
built from.

Back-ends share that front-end through the **simulation-method
registry** (:mod:`repro.simulators.registry`): each registered
:class:`~repro.simulators.registry.MethodDescriptor` carries a
capability predicate, a cost estimator, a qubit budget and an execute
entry point.  This module registers the four built-ins on import:

* ``"density_matrix"`` — exact mixed-state evolution, ``4**n`` memory;
  handles every noise process this library models;
* ``"statevector"`` — pure-state evolution, ``2**n`` memory; exact for
  circuits whose noise never touches the state (readout assignment
  error is classical and still applied);
* ``"stabilizer"`` — CHP-style Clifford tableau
  (:mod:`repro.simulators.stabilizer`), polynomial memory; exact for
  Clifford circuits whose noise is a Pauli mixture (plus classical
  readout error) — per-shot noise/measurement sampling, so 20+-qubit
  Clifford workloads run exactly instead of via ``2**n`` trajectories;
* ``"trajectory"`` — Monte Carlo stochastic-wavefunction sampling
  (:mod:`repro.simulators.trajectory`): ``2**n`` per trajectory,
  batched ``(B, 2**n)`` kernel, embarrassingly parallel, statistically
  equivalent for Kraus/stochastic noise — the fallback past the
  density-matrix wall for non-Pauli noise.  ``trajectories="auto"``
  (with ``target_error=``) switches it to adaptive allocation.

``method="auto"`` (the default) resolves per circuit through
:func:`select_method`: the cheapest registered method whose predicate
accepts the circuit and whose budget admits it, exact methods before
statistical ones, ranked by the registry cost model.  New back-ends
registered through :func:`repro.simulators.registry.register_method`
participate with no engine changes.

Per-method active-qubit budgets are configurable
(:func:`set_method_qubit_budget`; RAM-derived caps via
:func:`autodetect_method_budgets`); exceeding one raises a
:class:`~repro.exceptions.BackendError` naming the method in use, its
escape hatch and the registered alternatives.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.backends.result import Counts, ExperimentResult
from repro.backends.target import Target
from repro.circuits.circuit import CircuitInstruction, QuantumCircuit
from repro.circuits.gates import (
    Barrier,
    Delay,
    Instruction,
    Measure,
    PulseGate,
    StandardGate,
)
from repro.exceptions import BackendError, ReproError, TransientError
from repro.noise.model import NoiseModel
from repro.simulators.density_matrix import (
    DensityMatrix,
    channel_superop,
    expand_superop,
    unitary_superop,
)
from repro.simulators.registry import (
    AUTO_METHOD,
    MethodDescriptor,
    adopt_method_budgets,
    autodetect_method_budgets,
    available_memory_bytes,
    check_method_name,
    check_qubit_budget,
    default_method_qubit_budgets,
    method_descriptor,
    method_names,
    method_qubit_budget,
    method_qubit_budgets,
    rank_methods,
    register_method,
    set_method_qubit_budget,
)
from repro.simulators.stabilizer import (
    MAX_MEASURED_QUBITS,
    StabilizerProgram,
    clifford_conjugation_table,
    pauli_channel_terms,
    run_stabilizer_program,
)
from repro.simulators.statevector import Statevector
from repro.simulators.trajectory import (
    TrajectoryProgram,
    run_trajectories,
    run_trajectories_adaptive,
    sample_jitter_kicks,
)
from repro.telemetry.metrics import inc as metric_inc, observe as metric_observe
from repro.telemetry.records import record as telemetry_record, recording_enabled
from repro.telemetry.spans import span as telemetry_span
from repro.utils.bitstrings import index_to_bitstring
from repro.utils.kernels import marginalize
from repro.utils.linalg import kron_all
from repro.utils.rng import as_generator, derive_seed

UnitaryProvider = Callable[[Instruction, tuple[int, ...]], np.ndarray]

#: default trajectory count when ``trajectories`` is unspecified: enough
#: for percent-level statistics without drowning the 2**n advantage
DEFAULT_TRAJECTORIES = 128

#: default counts-distribution precision for ``trajectories="auto"``
DEFAULT_TARGET_ERROR = 0.02

#: adaptive allocation grows in rounds of this many trajectories
ADAPTIVE_ROUND_TRAJECTORIES = 32

#: hard ceiling on adaptive trajectory growth (also capped by shots)
ADAPTIVE_MAX_TRAJECTORIES = 1024


def __getattr__(name: str):
    # computed module attributes, always in sync with the live registry
    if name == "METHODS":
        return method_names(include_auto=True)
    if name == "DEFAULT_METHOD_QUBIT_BUDGETS":
        return default_method_qubit_budgets()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def default_trajectory_count(shots: int) -> int:
    """Trajectory count used when the caller does not pin one."""
    return max(1, min(int(shots), DEFAULT_TRAJECTORIES))


def classify_error(exc: BaseException) -> str:
    """Sort an execution failure into ``"transient"`` or ``"permanent"``.

    The execution service retries transient failures (same job, same
    seed — simulation is side-effect-free, so a retry is always safe
    and, with the seed carried along, byte-identical) and quarantines
    permanent ones.  The taxonomy:

    * **permanent** — every :class:`~repro.exceptions.ReproError`
      except :class:`~repro.exceptions.TransientError`: validation,
      budget and physics errors are deterministic functions of the job,
      so re-running cannot change the outcome.  ``MemoryError`` is also
      permanent: the same state vector will not fit on the second try.
    * **transient** — :class:`~repro.exceptions.TransientError`,
      broken/timed-out executors (a worker died or hung — the job
      itself may be innocent), ``OSError`` (disk / pipe hiccups) and
      pipe-teardown artefacts (``EOFError``, ``BrokenPipeError``).
      Unrecognised exceptions default to transient: retries are bounded
      and side-effect-free, so the cost of retrying a deterministic bug
      a few times is far lower than the cost of killing a long batch
      over an infrastructure blip the taxonomy does not know yet.
    """
    if isinstance(exc, TransientError):
        return "transient"
    if isinstance(exc, (MemoryError, ReproError)):
        return "permanent"
    return "transient"


def resolve_trajectory_request(
    trajectories: int | str | None,
    target_error: float | None,
    shots: int,
) -> tuple[int | None, float | None]:
    """Normalise the (trajectories, target_error) pair of knobs.

    Returns ``(fixed_count, None)`` for a fixed-count run or
    ``(None, target_error)`` for adaptive allocation.  ``"auto"``
    selects adaptive allocation (``target_error`` defaults to
    :data:`DEFAULT_TARGET_ERROR`); a bare ``target_error`` implies
    ``"auto"``; ``target_error`` alongside a pinned integer count is a
    contradiction and is rejected.
    """
    if isinstance(trajectories, str):
        if trajectories != "auto":
            raise BackendError(
                f"trajectories must be an int, None or 'auto', got "
                f"{trajectories!r}"
            )
        error = DEFAULT_TARGET_ERROR if target_error is None else target_error
        if error <= 0:
            raise BackendError("target_error must be > 0")
        return None, float(error)
    if target_error is not None:
        if trajectories is not None:
            raise BackendError(
                "target_error requires trajectories='auto' (or leaving "
                "trajectories unset); a pinned trajectory count cannot "
                "adapt"
            )
        if target_error <= 0:
            raise BackendError("target_error must be > 0")
        return None, float(target_error)
    if trajectories is None:
        return default_trajectory_count(shots), None
    total = int(trajectories)
    if total < 1:
        raise BackendError("trajectories must be >= 1")
    return total, None


class _RunContext:
    """Per-run (or per-batch) memo of derived execution data.

    Shared across the circuits of one :func:`execute_circuits` sweep so
    that measure-duration lookups and crosstalk unitaries are derived
    once per batch rather than once per circuit.  The heavyweight memos
    (relaxation channels, static gate superoperators, ZZ diagonals,
    pulse propagators, calibrations) live on the noise model / device
    and persist across batches.
    """

    __slots__ = ("target", "measure_durations", "zz_unitaries")

    def __init__(self, target: Target) -> None:
        self.target = target
        self.measure_durations: dict[int, int] = {}
        self.zz_unitaries: dict[float, np.ndarray] = {}

    def measure_duration(self, qubit: int) -> int:
        duration = self.measure_durations.get(qubit)
        if duration is None:
            duration = self.target.duration("measure", (qubit,))
            self.measure_durations[qubit] = duration
        return duration

    def zz_unitary(self, angle: float) -> np.ndarray:
        rzz = self.zz_unitaries.get(angle)
        if rzz is None:
            rzz = np.diag(
                np.exp(-1j * angle / 2 * np.array([1.0, -1.0, -1.0, 1.0]))
            )
            self.zz_unitaries[angle] = rzz
        return rzz


def _zz_diagonal(
    angle: float, pairs: tuple[tuple[int, int], ...], width: int
) -> np.ndarray:
    """Diagonal of one layer's ZZ crosstalk on the ``width``-qubit
    register: every coupled pair's :meth:`_RunContext.zz_unitary` at
    once."""
    index = np.arange(1 << width)
    # sum over pairs of Z_a Z_b: +1 where the two bits agree
    zz = sum(1 - 2 * (((index >> a) ^ (index >> b)) & 1) for a, b in pairs)
    return np.exp(-0.5j * angle * zz)


def _operation_duration(
    inst: CircuitInstruction, target: Target
) -> int:
    op = inst.operation
    if isinstance(op, Barrier):
        return 0
    if isinstance(op, Delay):
        return op.duration
    if isinstance(op, PulseGate):
        duration = getattr(op, "duration", None)
        if duration is None and getattr(op, "schedule", None) is not None:
            duration = op.schedule.duration
        if duration is None:
            raise BackendError(
                f"pulse gate {op.name!r} carries no duration"
            )
        return int(duration)
    if isinstance(op, Measure):
        return target.duration("measure", inst.qubits)
    if target.has_duration(op.name):
        return target.duration(op.name, inst.qubits)
    # non-native gate executed directly (unrouted logical circuit):
    # approximate with sx/cx costs so duration-driven noise stays sane
    return target.duration("sx") if op.num_qubits == 1 else target.duration("cx")


def _layered_moments(
    circuit: QuantumCircuit, target: Target
) -> tuple[list[list[int]], list[int]]:
    """Group instruction indices into ASAP layers with layer durations."""
    level_of_qubit: dict[int, int] = {}
    layers: dict[int, list[int]] = {}
    durations: dict[int, int] = {}
    for idx, inst in enumerate(circuit.instructions):
        if isinstance(inst.operation, Measure):
            continue  # handled separately at the end
        level = max(
            (level_of_qubit.get(q, 0) for q in inst.qubits), default=0
        )
        if isinstance(inst.operation, Barrier):
            for q in inst.qubits:
                level_of_qubit[q] = level
            continue
        layers.setdefault(level, []).append(idx)
        durations[level] = max(
            durations.get(level, 0), _operation_duration(inst, target)
        )
        for q in inst.qubits:
            level_of_qubit[q] = level + 1
    ordered = sorted(layers)
    return (
        [layers[level] for level in ordered],
        [durations[level] for level in ordered],
    )


def _resolve_unitary(
    op: Instruction,
    phys_qubits: tuple[int, ...],
    unitary_provider: UnitaryProvider | None,
) -> np.ndarray:
    cached = getattr(op, "unitary", None)
    if cached is not None:
        return np.asarray(cached, dtype=complex)
    try:
        return op.matrix()
    except Exception:
        if unitary_provider is None:
            raise BackendError(
                f"no unitary available for {op!r}"
            ) from None
        return unitary_provider(op, phys_qubits)


# ---------------------------------------------------------------------------
# front-end: circuit analysis and method selection
# ---------------------------------------------------------------------------

class _CircuitPlan:
    """Method-agnostic execution plan for one circuit.

    Carries the circuit and target it was derived from: the registry's
    capability predicates and cost estimators receive the plan (plus
    the noise model) and need to inspect instruction content.
    """

    __slots__ = (
        "circuit",
        "target",
        "measured_qubits",
        "measured_clbits",
        "active_list",
        "local",
        "num_local",
        "layers",
        "layer_durations",
        "coupled_local_pairs",
    )

    def __init__(self, circuit: QuantumCircuit, target: Target) -> None:
        self.circuit = circuit
        self.target = target
        measures = [
            inst
            for inst in circuit.instructions
            if isinstance(inst.operation, Measure)
        ]
        self.measured_qubits = [inst.qubits[0] for inst in measures]
        self.measured_clbits = [inst.clbits[0] for inst in measures]
        if len(set(self.measured_qubits)) != len(self.measured_qubits):
            raise BackendError("a qubit is measured twice")
        if len(set(self.measured_clbits)) != len(self.measured_clbits):
            raise BackendError("two measurements share a classical bit")
        self.active_list = sorted(_active_qubits(circuit))
        self.local = {
            phys: i for i, phys in enumerate(self.active_list)
        }
        self.num_local = len(self.active_list)
        self.layers, self.layer_durations = _layered_moments(
            circuit, target
        )
        self.coupled_local_pairs = [
            (self.local[a], self.local[b], a, b)
            for a, b in target.coupling.edges
            if a in self.local and b in self.local
        ]


def _active_qubits(circuit: QuantumCircuit) -> set[int]:
    active: set[int] = set()
    for inst in circuit.instructions:
        if isinstance(inst.operation, Measure):
            active.add(inst.qubits[0])
        elif not isinstance(inst.operation, Barrier):
            active.update(inst.qubits)
    return active


def _noise_touches_state(
    circuit: QuantumCircuit, noise_model: NoiseModel | None
) -> bool:
    """Whether any configured noise acts on the quantum state itself.

    Readout assignment error is *classical* post-processing of the
    measurement distribution, so a model carrying only readout error
    still admits pure-state simulation.
    """
    if noise_model is None:
        return False
    if noise_model.has_relaxation or noise_model.zz_crosstalk_ghz:
        return True
    for inst in circuit.instructions:
        op = inst.operation
        if isinstance(op, (Barrier, Measure, Delay)):
            continue
        if isinstance(op, PulseGate):
            if (
                noise_model.pulse_error_per_dt_1q > 0
                or noise_model.pulse_error_per_dt_2q > 0
            ):
                return True
            if not getattr(op, "calibrated", False) and (
                noise_model.pulse_jitter_local > 0
                or (
                    noise_model.pulse_jitter_entangling > 0
                    and op.num_qubits == 2
                )
            ):
                return True
        elif noise_model.gate_channels(op.name, inst.qubits):
            return True
    return False


def select_method(
    circuit: QuantumCircuit,
    target: Target,
    noise_model: NoiseModel | None = None,
    method: str = "auto",
    _plan: "_CircuitPlan | None" = None,
) -> str:
    """Resolve ``method`` into a concrete back-end for this circuit.

    The ``auto`` policy asks the simulation-method registry
    (:func:`repro.simulators.registry.rank_methods`) for the cheapest
    registered method whose capability predicate accepts the
    ``(circuit, noise_model)`` pair and whose qubit budget admits it —
    exact methods before statistical ones, cost-model order within a
    tier.  With the built-in descriptors that reproduces the historical
    policy — ``statevector`` when no noise touches the state,
    ``density_matrix`` within its budget, ``trajectory`` past it — and
    adds ``stabilizer`` for Clifford circuits with Pauli noise, where
    the tableau beats every ``2**n`` method.  When no budget admits the
    circuit, the cheapest supporting method is returned so the budget
    error raised downstream names the most plausible cap to raise.
    """
    check_method_name(method)
    if method != AUTO_METHOD:
        return method
    plan = _plan if _plan is not None else _CircuitPlan(circuit, target)
    return rank_methods(plan, noise_model)[0].name


def _plan_and_method(
    circuit: QuantumCircuit,
    target: Target,
    noise_model: NoiseModel | None,
    method: str,
) -> tuple[_CircuitPlan, str]:
    """``circuit``'s plan and the method ``method`` resolves to on it."""
    with telemetry_span("engine.plan"):
        plan = _CircuitPlan(circuit, target)
    with telemetry_span("engine.select_method", requested=method):
        resolved = select_method(
            circuit, target, noise_model, method, _plan=plan
        )
    return plan, resolved


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

@dataclass
class _ExecutionRequest:
    """Everything one resolved method's executor may need.

    Registry ``execute`` entry points receive ``(plan, request)``;
    each executor reads the fields relevant to its method and ignores
    the rest (the trajectory knobs mean nothing to the exact methods,
    the unitary provider nothing to the stabilizer tableau...).
    """

    __slots__ = (
        "noise_model",
        "shots",
        "seed",
        "unitary_provider",
        "readout_relaxation_fraction",
        "with_readout_error",
        "trajectories",
        "target_error",
        "trajectory_slice",
        "trajectory_batch",
        "stabilizer_shot_batch",
        "context",
    )

    noise_model: NoiseModel | None
    shots: int
    seed: int | None | np.random.Generator
    unitary_provider: UnitaryProvider | None
    readout_relaxation_fraction: float
    with_readout_error: bool
    trajectories: int | str | None
    target_error: float | None
    trajectory_slice: tuple[int, int] | None
    trajectory_batch: int | None
    stabilizer_shot_batch: int | None
    context: _RunContext


def execute_circuit(
    circuit: QuantumCircuit,
    target: Target,
    noise_model: NoiseModel | None = None,
    shots: int = 1024,
    seed: int | None | np.random.Generator = None,
    unitary_provider: UnitaryProvider | None = None,
    readout_relaxation_fraction: float = 0.5,
    with_readout_error: bool = True,
    method: str = "auto",
    trajectories: int | str | None = None,
    target_error: float | None = None,
    trajectory_slice: tuple[int, int] | None = None,
    trajectory_batch: int | None = None,
    stabilizer_shot_batch: int | None = None,
    _context: _RunContext | None = None,
    _resolved: tuple[_CircuitPlan, str] | None = None,
) -> ExperimentResult:
    """Run one circuit and sample measurement outcomes.

    The circuit's qubit indices are interpreted as *physical* qubits of
    ``target`` (run transpiled circuits, or logical ones on a matching
    trivial layout).  Measurements must be terminal.

    ``method`` selects the simulation back-end (see module docstring);
    the resolved method is reported in the result metadata.  An explicit
    ``method="statevector"`` on a noisy circuit deliberately drops every
    channel that would act on the state (readout error still applies) —
    that is the noiseless escape hatch, not an approximation of the
    noise.  ``trajectories`` / ``trajectory_slice`` configure the
    trajectory back-end: counts for slice ``[a, b)`` merged with the
    complementary slices are identical to one full run at the same seed.
    ``trajectories="auto"`` (or a bare ``target_error``) switches the
    trajectory back-end to adaptive allocation: trajectories run in
    rounds until the estimated counts-distribution standard error drops
    to ``target_error``.  ``trajectory_batch`` bounds how many
    trajectories the batched kernel stacks per call (``1`` = the
    sequential reference loop; counts are byte-identical either way).
    ``stabilizer_shot_batch`` is the tableau back-end's analogue: how
    many shots its phase-batched kernel stacks per round — likewise
    byte-identical at every value, with ``1`` the sequential reference.

    ``_resolved`` is a ``(plan, method)`` pair from
    :func:`_plan_and_method` for a caller that already planned the
    circuit to make its own decision (``SimulatedBackend.run`` deciding
    whether to pool one circuit), so the circuit is planned once.
    """
    if trajectory_batch is not None and trajectory_batch < 1:
        raise BackendError("trajectory_batch must be >= 1")
    if stabilizer_shot_batch is not None and stabilizer_shot_batch < 1:
        raise BackendError("stabilizer_shot_batch must be >= 1")
    context = _context if _context is not None else _RunContext(target)
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    with telemetry_span("engine.execute", shots=int(shots)) as exec_span:
        plan, resolved = (
            _resolved
            if _resolved is not None
            else _plan_and_method(circuit, target, noise_model, method)
        )
        descriptor = method_descriptor(resolved)
        if exec_span:
            exec_span.annotate(
                method=resolved,
                qubits=plan.num_local,
                depth=len(plan.layers),
            )
        if trajectory_slice is not None and resolved != "trajectory":
            # a sliced sub-job running the full exact path would return
            # full-shot counts per slice and the merge would multiply shots
            raise BackendError(
                f"trajectory_slice given but the resolved method is "
                f"{resolved!r}; slices only apply to method='trajectory'"
            )
        check_qubit_budget(
            resolved, plan.num_local, plan=plan, noise_model=noise_model
        )

        if not plan.measured_qubits:
            return ExperimentResult(
                Counts({}),
                sum(plan.layer_durations),
                metadata={
                    "active_qubits": plan.active_list,
                    "method": resolved,
                },
            )

        if resolved != "trajectory":
            # like a pinned ``trajectories=`` count, the adaptive knobs
            # configure the trajectory back-end only — but reject malformed
            # values eagerly so typos don't ride along silently
            resolve_trajectory_request(trajectories, target_error, shots)

        with telemetry_span("engine.kernel", method=resolved):
            result = descriptor.execute(
                plan,
                _ExecutionRequest(
                    noise_model=noise_model,
                    shots=shots,
                    seed=seed,
                    unitary_provider=unitary_provider,
                    readout_relaxation_fraction=readout_relaxation_fraction,
                    with_readout_error=with_readout_error,
                    trajectories=trajectories,
                    target_error=target_error,
                    trajectory_slice=trajectory_slice,
                    trajectory_batch=trajectory_batch,
                    stabilizer_shot_batch=stabilizer_shot_batch,
                    context=context,
                ),
            )
    wall = time.perf_counter() - wall_start
    metric_inc("engine.executions", method=resolved)
    metric_observe(
        "engine.execute_seconds", wall, method=resolved, qubits=plan.num_local
    )
    if recording_enabled():
        telemetry_record(
            "execute",
            method=resolved,
            qubits=plan.num_local,
            depth=len(plan.layers),
            channels=_noise_channel_count(plan, noise_model),
            shots=int(shots),
            trajectories=result.metadata.get("trajectories"),
            wall_seconds=wall,
            cpu_seconds=time.process_time() - cpu_start,
        )
    return result


def _noise_channel_count(
    plan: _CircuitPlan, noise_model: NoiseModel | None
) -> int:
    """Count of per-gate noise channels the circuit attracts.

    Telemetry-record bookkeeping only (the channel lookups are memoized
    on the noise model); computed solely when recording is enabled.
    """
    if noise_model is None:
        return 0
    total = 0
    for inst in plan.circuit.instructions:
        op = inst.operation
        if isinstance(op, (Barrier, Measure, Delay)):
            continue
        if isinstance(op, PulseGate):
            total += 1
        else:
            total += len(noise_model.gate_channels(op.name, inst.qubits))
    return total


def _execute_exact(
    plan: _CircuitPlan,
    request: _ExecutionRequest,
    resolved: str,
) -> ExperimentResult:
    """Executor of the exact amplitude back-ends.

    ``statevector`` deliberately drops every channel that would act on
    the state (``effective_noise=None``) — that is the noiseless escape
    hatch, not an approximation; classical readout error still applies.
    """
    noise_model = request.noise_model
    context = request.context
    rng = as_generator(request.seed)
    effective_noise = noise_model if resolved == "density_matrix" else None
    with telemetry_span("engine.evolve", method=resolved):
        state, total_duration = _evolve_exact(
            plan,
            plan.circuit,
            resolved,
            effective_noise,
            rng,
            request.unitary_provider,
            plan.target,
        )

    measure_duration = max(
        context.measure_duration(q) for q in plan.measured_qubits
    )
    if (
        effective_noise is not None
        and request.readout_relaxation_fraction > 0
    ):
        effective = int(
            measure_duration * request.readout_relaxation_fraction
        )
        for q in plan.measured_qubits:
            channel = effective_noise.relaxation_channel(q, effective)
            if channel is not None:
                state.apply_channel(channel, [plan.local[q]])
    total_duration += measure_duration

    probs = state.probabilities()
    marginal = _marginalize(
        probs,
        [plan.local[q] for q in plan.measured_qubits],
        plan.num_local,
    )
    if (
        noise_model is not None
        and request.with_readout_error
        and noise_model.readout_error is not None
    ):
        readout = noise_model.readout_subset(plan.measured_qubits)
        marginal = readout.apply_to_probabilities(marginal)

    counts_raw = rng.multinomial(request.shots, marginal / marginal.sum())
    observed = np.flatnonzero(counts_raw)
    counts = _assemble_counts(
        observed, counts_raw[observed], plan.measured_clbits
    )
    return ExperimentResult(
        counts,
        total_duration,
        metadata=_result_metadata(plan, resolved),
    )


def _execute_density_matrix(plan, request) -> ExperimentResult:
    return _execute_exact(plan, request, "density_matrix")


def _execute_statevector(plan, request) -> ExperimentResult:
    return _execute_exact(plan, request, "statevector")


def _evolve_exact(
    plan: _CircuitPlan,
    circuit: QuantumCircuit,
    resolved: str,
    noise_model: NoiseModel | None,
    rng: np.random.Generator,
    unitary_provider: UnitaryProvider | None,
    target: Target,
):
    """Layer walk of the exact (non-sampling) back-ends.

    Returns ``(state, total_duration)``.  ``density_matrix`` runs the
    fused noisy walk (:func:`_evolve_density`) into a
    :class:`DensityMatrix`; ``statevector`` applies each gate's unitary
    to a :class:`Statevector` and nothing else, since that back-end sees
    no state noise by construction.
    """
    if resolved == "density_matrix":
        return _evolve_density(
            plan, circuit, noise_model, rng, unitary_provider, target
        )
    state = Statevector(plan.num_local)
    for layer in plan.layers:
        for idx in layer:
            inst = circuit.instructions[idx]
            if not isinstance(inst.operation, Delay):
                state.evolve(
                    _resolve_unitary(
                        inst.operation, inst.qubits, unitary_provider
                    ),
                    [plan.local[q] for q in inst.qubits],
                )
    return state, sum(plan.layer_durations)


def _evolve_density(
    plan: _CircuitPlan,
    circuit: QuantumCircuit,
    noise_model: NoiseModel | None,
    rng: np.random.Generator,
    unitary_provider: UnitaryProvider | None,
    target: Target,
) -> tuple[DensityMatrix, int]:
    """The fused density-matrix walk (see the module docstring).

    Per layer: one superoperator pass per multi-qubit gate — relaxation
    · jitter kick · channels · ``U ⊗ U*`` (:func:`_gate_superop`) — then
    the layer's single-qubit maps, 1-qubit gates composed the same way
    and the idle qubits' relaxation, two to a pass, then one diagonal
    pass for the ZZ crosstalk of every coupled pair.  The maps are built
    in instruction order, so jitter kicks draw the RNG stream the
    trajectory lowering draws.  Static gates, idle relaxations, pairs of
    them and ZZ diagonals come from the noise model's superoperator
    memo.  Pass totals go to the ``engine.density_passes`` counter.
    """
    state = DensityMatrix(plan.num_local)
    memo = noise_model.superop_cache if noise_model is not None else None
    zz_rate = (
        getattr(noise_model, "zz_crosstalk_ghz", 0.0) if noise_model else 0.0
    )
    zz_pairs = tuple((la, lb) for la, lb, _a, _b in plan.coupled_local_pairs)
    superop_passes = diagonal_passes = 0
    total_duration = 0
    for layer, duration in zip(plan.layers, plan.layer_durations):
        timed = noise_model is not None and duration > 0
        relaxed: set[int] = set()
        # (superop, local qubit, memo key or None when built per call)
        singles: list[tuple[np.ndarray, int, object]] = []
        for idx in layer:
            inst = circuit.instructions[idx]
            op = inst.operation
            if isinstance(op, Delay):
                continue
            qubits = [plan.local[q] for q in inst.qubits]
            relaxations = tuple(
                noise_model.relaxation_channel(q, duration) if timed else None
                for q in inst.qubits
            )
            build = partial(
                _gate_superop, inst, qubits, noise_model, rng, target,
                unitary_provider, relaxations,
            )
            key = None
            if memo is not None and _is_static(op):
                # the channel objects, not qubits or durations: a changed
                # noise model yields new ones, so it misses instead of
                # meeting a stale superoperator
                key = (
                    op.name,
                    tuple(noise_model.gate_channels(op.name, inst.qubits)),
                    relaxations,
                )
                superop, folded = memo.get_or_compute(key, build)
            else:
                superop, folded = build()
            if folded:
                relaxed.update(qubits)
            if len(qubits) == 1:
                singles.append((superop, qubits[0], key))
            else:
                state.apply_superop(superop, qubits)
                superop_passes += 1
        if timed:
            for phys in plan.active_list:
                if plan.local[phys] in relaxed:
                    continue
                channel = noise_model.relaxation_channel(phys, duration)
                if channel is not None:
                    singles.append(
                        (channel_superop(channel), plan.local[phys], channel)
                    )
        superop_passes += _apply_paired(state, singles, memo)
        if timed and zz_rate and zz_pairs:
            angle = 2 * math.pi * zz_rate * duration * target.dt
            state.apply_diagonal_unitary(
                memo.get_or_compute(
                    (angle, zz_pairs, plan.num_local),
                    partial(_zz_diagonal, angle, zz_pairs, plan.num_local),
                )
            )
            diagonal_passes += 1
        total_duration += duration
    metric_inc("engine.density_passes", superop_passes, kind="superop")
    metric_inc("engine.density_passes", diagonal_passes, kind="diagonal")
    return state, total_duration


def _is_static(op: Instruction) -> bool:
    """Whether ``op``'s superoperator is fixed by its name: a library
    gate without parameters (``cx``, ``sx``, ``x``...).  Parametric
    gates, pulse gates and ``UnitaryGate`` are built per evaluation."""
    return isinstance(op, StandardGate) and not op.params


def _gate_superop(
    inst: CircuitInstruction,
    qubits: Sequence[int],
    noise_model: NoiseModel | None,
    rng: np.random.Generator,
    target: Target,
    unitary_provider: UnitaryProvider | None,
    relaxations: tuple,
) -> tuple[np.ndarray, bool]:
    """``R · K · C · (U ⊗ U*)`` of one gate, and whether the layer's
    relaxation ``R`` of its qubits (``relaxations``, one channel or
    ``None`` per qubit) is folded in."""
    superop = unitary_superop(
        _resolve_unitary(inst.operation, inst.qubits, unitary_provider)
    )
    if noise_model is None:
        return superop, False
    superop = _gate_noise_superop(
        superop, inst, qubits, noise_model, rng, target
    )
    relaxation = _relaxation_superop(relaxations)
    if relaxation is None:
        return superop, False
    return relaxation @ superop, True


def _apply_paired(state: DensityMatrix, singles: list, memo) -> int:
    """Apply a layer's single-qubit maps two to a pass; returns the
    number of passes.

    The maps act on distinct qubits, so the two of a pair combine into
    one 16×16 superoperator (:func:`expand_superop`).  A pair of two
    memoized maps is memoized under the pair of their keys; an odd map
    left over gets a pass of its own.
    """
    for (low, q_low, k_low), (high, q_high, k_high) in zip(
        singles[0::2], singles[1::2]
    ):
        if k_low is not None and k_high is not None:
            pair = memo.get_or_compute(
                (k_low, k_high), lambda: expand_superop(low, high)
            )
        else:
            pair = expand_superop(low, high)
        state.apply_superop(pair, [q_low, q_high])
    if len(singles) % 2:
        superop, qubit, _key = singles[-1]
        state.apply_superop(superop, [qubit])
    return (len(singles) + 1) // 2


def _gate_noise_superop(
    superop: np.ndarray,
    inst: CircuitInstruction,
    qubits: Sequence[int],
    noise_model: NoiseModel,
    rng: np.random.Generator,
    target: Target,
) -> np.ndarray:
    """``superop`` followed by the gate's channels and jitter kick.

    Pulse gates carry their duration-scaled channel and, unless
    calibration-derived (``op.calibrated``, set by the pulse-efficient
    pass and actively stabilised), the parameter-transfer jitter of
    paper §IV-C; other gates carry their noise-model channels.
    """
    op = inst.operation
    if isinstance(op, PulseGate):
        channel = noise_model.pulse_gate_channel(
            op.num_qubits, _operation_duration(inst, target)
        )
        channels = [] if channel is None else [channel]
    else:
        channels = noise_model.gate_channels(op.name, inst.qubits)
    for channel in channels:
        _check_channel_width(channel, qubits)
        superop = channel_superop(channel) @ superop
    if isinstance(op, PulseGate) and not getattr(op, "calibrated", False):
        kick = _jitter_unitary(len(qubits), noise_model, rng)
        if kick is not None:
            superop = unitary_superop(kick) @ superop
    return superop


def _jitter_unitary(
    width: int, noise_model: NoiseModel, rng: np.random.Generator
) -> np.ndarray | None:
    """The jitter kicks of one uncalibrated pulse gate as one unitary.

    The kicks come from
    :func:`repro.simulators.trajectory.sample_jitter_kicks`, which the
    trajectory back-end replays too, so RNG consumption is identical
    across methods.  ``None`` when no kick was drawn.
    """
    total = None
    for kick, positions in sample_jitter_kicks(
        width,
        noise_model.pulse_jitter_local,
        noise_model.pulse_jitter_entangling,
        rng,
    ):
        if len(positions) < width:
            (position,) = positions
            kick = kron_all([
                np.eye(1 << (width - 1 - position)),
                kick,
                np.eye(1 << position),
            ])
        total = kick if total is None else kick @ total
    return total


def _relaxation_superop(channels: Sequence) -> np.ndarray | None:
    """One layer's thermal relaxation of a gate's qubits (``channels``,
    one per qubit) as one superoperator, or ``None`` when one of them
    has no T1/T2 (those qubits then relax in the idle pass)."""
    superop = None
    for channel in channels:
        if channel is None:
            return None
        single = channel_superop(channel)
        superop = (
            single if superop is None else expand_superop(superop, single)
        )
    return superop


def _result_metadata(plan: _CircuitPlan, resolved: str) -> dict:
    return {
        "active_qubits": plan.active_list,
        "measured_qubits": plan.measured_qubits,
        "clbit_to_qubit": dict(
            zip(plan.measured_clbits, plan.measured_qubits)
        ),
        "method": resolved,
    }


def _assemble_counts(
    observed: np.ndarray,
    values: np.ndarray,
    measured_clbits: Sequence[int],
) -> Counts:
    """Map measured-qubit outcome indices onto clbit-positioned counts.

    Touches only the outcomes that actually drew shots.
    """
    num_clbits = max(measured_clbits) + 1
    observed = np.asarray(observed, dtype=np.int64)
    clbit_values = np.zeros_like(observed)
    for pos, clbit in enumerate(measured_clbits):
        clbit_values |= ((observed >> pos) & 1) << clbit
    counts: dict[str, int] = {}
    for clbit_value, count in zip(clbit_values, values):
        key = index_to_bitstring(int(clbit_value), num_clbits)
        counts[key] = counts.get(key, 0) + int(count)
    return Counts(counts)


# ---------------------------------------------------------------------------
# trajectory back-end
# ---------------------------------------------------------------------------

def _compile_trajectory_program(
    plan: _CircuitPlan,
    circuit: QuantumCircuit,
    noise_model: NoiseModel | None,
    unitary_provider: UnitaryProvider | None,
    readout_relaxation_fraction: float,
    context: _RunContext,
    target: Target,
) -> tuple[TrajectoryProgram, int]:
    """Lower the circuit + noise model into a replayable step program.

    Compiled once per circuit and replayed per trajectory, so unitary
    resolution (including pulse-gate propagators) is paid once.
    Returns ``(program, total_duration)`` with the measure window
    included in the duration.
    """
    program = TrajectoryProgram(plan.num_local)
    zz_rate = (
        getattr(noise_model, "zz_crosstalk_ghz", 0.0) if noise_model else 0.0
    )
    total_duration = 0
    for layer, duration in zip(plan.layers, plan.layer_durations):
        for idx in layer:
            inst = circuit.instructions[idx]
            op = inst.operation
            if isinstance(op, Delay):
                continue
            qubits = [plan.local[q] for q in inst.qubits]
            matrix = _resolve_unitary(op, inst.qubits, unitary_provider)
            program.unitary(matrix, qubits)
            if noise_model is not None:
                if isinstance(op, PulseGate):
                    channel = noise_model.pulse_gate_channel(
                        op.num_qubits, _operation_duration(inst, target)
                    )
                    if channel is not None:
                        program.channel(channel.kraus_ops, qubits)
                    if not getattr(op, "calibrated", False):
                        program.jitter(
                            qubits,
                            noise_model.pulse_jitter_local,
                            noise_model.pulse_jitter_entangling,
                        )
                else:
                    for channel in noise_model.gate_channels(
                        op.name, inst.qubits
                    ):
                        program.channel(channel.kraus_ops, qubits)
        if noise_model is not None and duration > 0:
            for phys in plan.active_list:
                channel = noise_model.relaxation_channel(phys, duration)
                if channel is not None:
                    program.channel(
                        channel.kraus_ops, [plan.local[phys]]
                    )
            if zz_rate:
                angle = 2 * math.pi * zz_rate * duration * target.dt
                rzz = context.zz_unitary(angle)
                for la, lb, _a, _b in plan.coupled_local_pairs:
                    program.unitary(rzz, [la, lb])
        total_duration += duration

    measure_duration = max(
        context.measure_duration(q) for q in plan.measured_qubits
    )
    if noise_model is not None and readout_relaxation_fraction > 0:
        effective = int(measure_duration * readout_relaxation_fraction)
        for q in plan.measured_qubits:
            channel = noise_model.relaxation_channel(q, effective)
            if channel is not None:
                program.channel(channel.kraus_ops, [plan.local[q]])
    total_duration += measure_duration
    return program, total_duration


def _measured_readout(plan: _CircuitPlan, request: _ExecutionRequest):
    """The measured-qubit readout model for sampling back-ends, if any."""
    noise_model = request.noise_model
    if (
        noise_model is not None
        and request.with_readout_error
        and noise_model.readout_error is not None
    ):
        return noise_model.readout_subset(plan.measured_qubits)
    return None


def _execute_trajectory(
    plan: _CircuitPlan, request: _ExecutionRequest
) -> ExperimentResult:
    noise_model = request.noise_model
    shots = request.shots
    trajectory_slice = request.trajectory_slice
    total, resolved_target_error = resolve_trajectory_request(
        request.trajectories, request.target_error, shots
    )
    if total is None and trajectory_slice is not None:
        raise BackendError(
            "adaptive trajectory allocation (trajectories='auto') cannot "
            "run a trajectory slice: the total count is only known once "
            "the run converges; pin an integer trajectory count to slice"
        )
    with telemetry_span("engine.compile", method="trajectory"):
        program, total_duration = _compile_trajectory_program(
            plan,
            plan.circuit,
            noise_model,
            request.unitary_provider,
            request.readout_relaxation_fraction,
            request.context,
            plan.target,
        )
    readout = _measured_readout(plan, request)
    measured_positions = [plan.local[q] for q in plan.measured_qubits]
    adaptive_info = None
    if total is None:
        with telemetry_span("trajectory.run", adaptive=True) as run_span:
            outcome_counts, adaptive_info = run_trajectories_adaptive(
                program,
                shots,
                request.seed,
                measured_positions=measured_positions,
                readout=readout,
                target_error=resolved_target_error,
                round_size=ADAPTIVE_ROUND_TRAJECTORIES,
                max_trajectories=ADAPTIVE_MAX_TRAJECTORIES,
                batch_size=request.trajectory_batch,
            )
            total = adaptive_info["trajectories"]
            if run_span:
                run_span.annotate(trajectories=total)
    else:
        with telemetry_span(
            "trajectory.run", adaptive=False, trajectories=total
        ):
            outcome_counts = run_trajectories(
                program,
                shots,
                total,
                request.seed,
                measured_positions=measured_positions,
                readout=readout,
                trajectory_slice=trajectory_slice,
                batch_size=request.trajectory_batch,
            )
    observed = sorted(outcome_counts)
    counts = _assemble_counts(
        np.array(observed, dtype=np.int64),
        np.array([outcome_counts[i] for i in observed], dtype=np.int64),
        plan.measured_clbits,
    )
    metadata = _result_metadata(plan, "trajectory")
    metadata["trajectories"] = total
    if adaptive_info is not None:
        # flat scalar keys so the result survives the on-disk store
        metadata["adaptive"] = True
        metadata["adaptive_rounds"] = adaptive_info["rounds"]
        metadata["adaptive_target_error"] = adaptive_info["target_error"]
        metadata["adaptive_achieved_error"] = adaptive_info[
            "achieved_error"
        ]
        metadata["adaptive_converged"] = adaptive_info["converged"]
    if trajectory_slice is not None:
        metadata["trajectory_slice"] = (
            int(trajectory_slice[0]),
            int(trajectory_slice[1]),
        )
    return ExperimentResult(counts, total_duration, metadata=metadata)


def merge_trajectory_results(
    parts: Sequence[ExperimentResult],
) -> ExperimentResult:
    """Merge partial (sliced) trajectory results into one experiment.

    The counts are summed and re-sorted by outcome, so the merged
    result is identical — counts, duration and metadata — to a single
    full-range run at the same seed, no matter how the trajectory range
    was partitioned.
    """
    if not parts:
        raise BackendError("nothing to merge")
    if len(parts) == 1 and "trajectory_slice" not in parts[0].metadata:
        return parts[0]
    merged: dict[str, int] = {}
    for part in parts:
        for key, value in part.counts.items():
            merged[key] = merged.get(key, 0) + int(value)
    metadata = dict(parts[0].metadata)
    metadata.pop("trajectory_slice", None)
    return ExperimentResult(
        Counts({key: merged[key] for key in sorted(merged)}),
        parts[0].duration,
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# stabilizer back-end
# ---------------------------------------------------------------------------

def _check_channel_width(channel, qubits: Sequence[int]) -> None:
    """Refuse a noise channel attached to an operation of another width:
    silently acting on a qubit subset would be wrong physics."""
    if channel.num_qubits != len(qubits):
        raise BackendError(
            f"{channel.num_qubits}-qubit noise channel "
            f"{channel.name!r} attached to a {len(qubits)}-qubit "
            f"operation"
        )


def _stabilizer_channel(
    program: StabilizerProgram, channel, qubits: Sequence[int]
) -> None:
    """Lower one Kraus channel into the program, or fail diagnosably."""
    _check_channel_width(channel, qubits)
    terms = pauli_channel_terms(channel.kraus_ops)
    if terms is None:
        raise BackendError(
            f"noise channel {channel.name!r} is not a Pauli mixture; "
            f"the stabilizer method supports Pauli channels (plus "
            f"classical readout error) only — method='auto' falls back "
            f"to trajectory for this noise"
        )
    program.channel(terms, qubits)


def _compile_stabilizer_program(
    plan: _CircuitPlan,
    circuit: QuantumCircuit,
    noise_model: NoiseModel | None,
    unitary_provider: UnitaryProvider | None,
    readout_relaxation_fraction: float,
    context: _RunContext,
    target: Target,
) -> tuple[StabilizerProgram, int]:
    """Lower the circuit + noise model onto the Clifford tableau.

    Mirrors the trajectory compile step for step; every gate must
    conjugate Paulis to Paulis and every channel must be a Pauli
    mixture, otherwise a :class:`BackendError` names the offending
    piece (``auto`` dispatch never gets here — its capability predicate
    already rejected the circuit — so these errors only reach callers
    who pinned ``method="stabilizer"`` explicitly).
    """
    program = StabilizerProgram(plan.num_local)
    zz_rate = (
        getattr(noise_model, "zz_crosstalk_ghz", 0.0) if noise_model else 0.0
    )
    total_duration = 0
    for layer, duration in zip(plan.layers, plan.layer_durations):
        for idx in layer:
            inst = circuit.instructions[idx]
            op = inst.operation
            if isinstance(op, Delay):
                continue
            qubits = [plan.local[q] for q in inst.qubits]
            matrix = _resolve_unitary(op, inst.qubits, unitary_provider)
            table = clifford_conjugation_table(matrix)
            if table is None:
                raise BackendError(
                    f"{op.name!r} on qubits {tuple(inst.qubits)} is not "
                    f"a Clifford operation; method='stabilizer' "
                    f"simulates Clifford circuits only"
                )
            program.clifford(table, qubits)
            if noise_model is not None:
                if isinstance(op, PulseGate):
                    channel = noise_model.pulse_gate_channel(
                        op.num_qubits, _operation_duration(inst, target)
                    )
                    if channel is not None:
                        _stabilizer_channel(program, channel, qubits)
                    if not getattr(op, "calibrated", False) and (
                        noise_model.pulse_jitter_local > 0
                        or (
                            noise_model.pulse_jitter_entangling > 0
                            and op.num_qubits == 2
                        )
                    ):
                        raise BackendError(
                            "pulse-transfer jitter is a coherent kick, "
                            "not a Pauli channel; method='stabilizer' "
                            "cannot model it"
                        )
                else:
                    for channel in noise_model.gate_channels(
                        op.name, inst.qubits
                    ):
                        _stabilizer_channel(program, channel, qubits)
        if noise_model is not None and duration > 0:
            for phys in plan.active_list:
                channel = noise_model.relaxation_channel(phys, duration)
                if channel is not None:
                    _stabilizer_channel(
                        program, channel, [plan.local[phys]]
                    )
            if zz_rate:
                angle = 2 * math.pi * zz_rate * duration * target.dt
                rzz = context.zz_unitary(angle)
                table = clifford_conjugation_table(rzz)
                if table is None:
                    raise BackendError(
                        f"ZZ-crosstalk rotation of {angle:.6f} rad is "
                        f"not a Clifford operation; method='stabilizer' "
                        f"cannot model continuous crosstalk"
                    )
                for la, lb, _a, _b in plan.coupled_local_pairs:
                    program.clifford(table, [la, lb])
        total_duration += duration

    measure_duration = max(
        context.measure_duration(q) for q in plan.measured_qubits
    )
    if noise_model is not None and readout_relaxation_fraction > 0:
        effective = int(measure_duration * readout_relaxation_fraction)
        for q in plan.measured_qubits:
            channel = noise_model.relaxation_channel(q, effective)
            if channel is not None:
                _stabilizer_channel(program, channel, [plan.local[q]])
    total_duration += measure_duration
    return program, total_duration


def _execute_stabilizer(
    plan: _CircuitPlan, request: _ExecutionRequest
) -> ExperimentResult:
    with telemetry_span("engine.compile", method="stabilizer"):
        program, total_duration = _compile_stabilizer_program(
            plan,
            plan.circuit,
            request.noise_model,
            request.unitary_provider,
            request.readout_relaxation_fraction,
            request.context,
            plan.target,
        )
    with telemetry_span("stabilizer.run", shots=int(request.shots)):
        outcome_counts, per_shot = run_stabilizer_program(
            program,
            request.shots,
            request.seed,
            [plan.local[q] for q in plan.measured_qubits],
            readout=_measured_readout(plan, request),
            shot_batch=request.stabilizer_shot_batch,
        )
    observed = sorted(outcome_counts)
    counts = _assemble_counts(
        np.array(observed, dtype=np.int64),
        np.array([outcome_counts[i] for i in observed], dtype=np.int64),
        plan.measured_clbits,
    )
    metadata = _result_metadata(plan, "stabilizer")
    # True when counts came from per-shot noise/measurement sampling
    # (exact i.i.d. draws); False for the single-multinomial exact path
    metadata["per_shot_sampling"] = per_shot
    return ExperimentResult(counts, total_duration, metadata=metadata)


def _marginalize(
    probs: np.ndarray, positions: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Marginal distribution over ``positions`` (positions[0] = LSB out).

    Vectorized index-map scatter-add (see
    :func:`repro.utils.kernels.marginalize`); accumulation order matches
    the historical Python loop bit-for-bit.
    """
    return marginalize(probs, positions, num_qubits)


def execute_circuits(
    circuits: Sequence[QuantumCircuit],
    target: Target,
    noise_model: NoiseModel | None = None,
    shots: int = 1024,
    seed: int | None | np.random.Generator = None,
    seeds: Sequence[int | None | np.random.Generator] | None = None,
    unitary_provider: UnitaryProvider | None = None,
    readout_relaxation_fraction: float = 0.5,
    with_readout_error: bool = True,
    method: str = "auto",
    trajectories: int | str | None = None,
    target_error: float | None = None,
    trajectory_slice: tuple[int, int] | None = None,
    trajectory_batch: int | None = None,
    stabilizer_shot_batch: int | None = None,
    _resolved: Sequence[tuple[_CircuitPlan, str]] | None = None,
) -> list[ExperimentResult]:
    """Run a batch of circuits, amortizing shared derivation work.

    The batch path shares one :class:`_RunContext` (measure durations,
    crosstalk unitaries) across all circuits and leans on the persistent
    memo layers — relaxation/pulse channels on the noise model, pulse
    propagators and calibrations on the device — so a parameter sweep
    pays layering, channel construction and calibration once instead of
    once per circuit.

    Seeding: when ``seeds`` is given it supplies one entry per circuit
    and ``execute_circuits(cs, seeds=[s0, ...])`` returns exactly what
    ``[execute_circuit(c, seed=s) for c, s in zip(cs, seeds)]`` would.
    Otherwise per-circuit seeds derive from ``seed`` via
    ``derive_seed(seed, "batch", index)`` (a Generator is shared
    sequentially, which is likewise identical to sequential calls).

    ``method`` / ``trajectories`` / ``target_error`` /
    ``trajectory_slice`` / ``trajectory_batch`` /
    ``stabilizer_shot_batch`` apply uniformly to every circuit of the
    batch (``"auto"`` resolves per circuit).

    ``_resolved`` holds one :func:`_plan_and_method` pair per circuit,
    passed on to :func:`execute_circuit`.
    """
    circuits = list(circuits)
    if seeds is not None:
        seeds = list(seeds)
        if len(seeds) != len(circuits):
            raise BackendError(
                f"{len(seeds)} seeds for {len(circuits)} circuits"
            )
    elif isinstance(seed, np.random.Generator):
        seeds = [seed] * len(circuits)
    else:
        seeds = [
            derive_seed(seed, "batch", index)
            for index in range(len(circuits))
        ]
    if _resolved is None:
        _resolved = [None] * len(circuits)
    context = _RunContext(target)
    return [
        execute_circuit(
            circuit,
            target,
            noise_model=noise_model,
            shots=shots,
            seed=circuit_seed,
            unitary_provider=unitary_provider,
            readout_relaxation_fraction=readout_relaxation_fraction,
            with_readout_error=with_readout_error,
            method=method,
            trajectories=trajectories,
            target_error=target_error,
            trajectory_slice=trajectory_slice,
            trajectory_batch=trajectory_batch,
            stabilizer_shot_batch=stabilizer_shot_batch,
            _context=context,
            _resolved=resolved,
        )
        for circuit, circuit_seed, resolved in zip(
            circuits, seeds, _resolved
        )
    ]


# ---------------------------------------------------------------------------
# built-in method registration
# ---------------------------------------------------------------------------

def _supports_any(plan: _CircuitPlan, noise_model) -> bool:
    """Density matrix and trajectory handle every modelled noise."""
    return True


def _supports_statevector(plan: _CircuitPlan, noise_model) -> bool:
    return not _noise_touches_state(plan.circuit, noise_model)


def _supports_stabilizer(plan: _CircuitPlan, noise_model) -> bool:
    """Clifford circuit + Pauli-mixture noise (readout error is fine).

    Pulse gates are rejected outright: continuous pulse propagators are
    never exactly Clifford, and probing them here would mean simulating
    the pulse.  The per-gate checks are cached by matrix content
    (:func:`~repro.simulators.stabilizer.clifford_conjugation_table`),
    so repeated dispatch over a sweep re-pays nothing.
    """
    if len(plan.measured_qubits) > MAX_MEASURED_QUBITS:
        # outcome indices pack into int64 counts downstream
        return False
    if noise_model is not None and (
        noise_model.has_relaxation or noise_model.zz_crosstalk_ghz
    ):
        return False
    # transpiler certificate: CliffordBlockAnalysis tags the maximal
    # Clifford prefix with the same per-gate oracle used below, so a
    # size-matched tag answers the gate scan without re-running it
    tag = plan.circuit.metadata.get("clifford_blocks")
    certified = (
        isinstance(tag, dict)
        and tag.get("size") == len(plan.circuit.instructions)
    )
    if certified and not tag.get("full"):
        return False
    if certified and noise_model is None:
        return True
    for inst in plan.circuit.instructions:
        op = inst.operation
        if isinstance(op, (Barrier, Measure, Delay)):
            continue
        if not certified:
            if isinstance(op, PulseGate):
                return False
            cached = getattr(op, "unitary", None)
            try:
                matrix = (
                    np.asarray(cached, dtype=complex)
                    if cached is not None
                    else op.matrix()
                )
            except Exception:
                return False
            if clifford_conjugation_table(matrix) is None:
                return False
        if noise_model is not None:
            for channel in noise_model.gate_channels(op.name, inst.qubits):
                if channel.num_qubits != len(inst.qubits):
                    # misconfigured width: let an amplitude back-end
                    # raise its loud error instead of running silently
                    # wrong physics here
                    return False
                if pauli_channel_terms(channel.kraus_ops) is None:
                    return False
    return True


#: nominal per-(qubit^2) work the cost model charges the tableau
#: back-end.  The 2**n amplitude kernels are vectorised and
#: cache-friendly, so per "element" they are orders of magnitude
#: cheaper than tableau row updates; this constant is calibrated so the
#: pure-state path keeps winning noiseless Clifford circuits up to its
#: 26-qubit budget (2**26 < _STABILIZER_SHOT_WORK * 26**2) while the
#: tableau takes over from the density matrix at ~13 qubits and owns
#: everything past the exact-method budgets.  The shot-batched packed
#: kernel (PR 8) made the tableau much faster in wall-clock, but these
#: crossover points are part of the seeded-dispatch contract — do not
#: retune them as a side effect of kernel work.
_STABILIZER_SHOT_WORK = 1 << 17


def _cost_statevector(plan: _CircuitPlan, noise_model) -> float:
    return float(1 << plan.num_local)


def _cost_density_matrix(plan: _CircuitPlan, noise_model) -> float:
    return float(1 << (2 * plan.num_local))


def _cost_trajectory(plan: _CircuitPlan, noise_model) -> float:
    return float(DEFAULT_TRAJECTORIES * (1 << plan.num_local))


def _cost_stabilizer(plan: _CircuitPlan, noise_model) -> float:
    return float(_STABILIZER_SHOT_WORK * max(1, plan.num_local) ** 2)


register_method(MethodDescriptor(
    name="density_matrix",
    supports=_supports_any,
    cost=_cost_density_matrix,
    execute=_execute_density_matrix,
    default_qubit_budget=14,
    escape_hatch=(
        "exact mixed-state evolution holds the full 4^n operator — "
        'stochastic noise is statistically equivalent on '
        'method="trajectory", Clifford circuits with Pauli noise are '
        'exact on method="stabilizer", noiseless circuits on '
        'method="statevector"'
    ),
    state_bytes=lambda num_qubits: 16 << (2 * num_qubits),
))

register_method(MethodDescriptor(
    name="statevector",
    supports=_supports_statevector,
    cost=_cost_statevector,
    execute=_execute_statevector,
    default_qubit_budget=26,
    escape_hatch="pure states scale 2^n",
    state_bytes=lambda num_qubits: 16 << num_qubits,
))

register_method(MethodDescriptor(
    name="trajectory",
    supports=_supports_any,
    cost=_cost_trajectory,
    execute=_execute_trajectory,
    default_qubit_budget=26,
    escape_hatch="each trajectory holds a 2^n statevector",
    statistical=True,
    state_bytes=lambda num_qubits: 16 << num_qubits,
))

register_method(MethodDescriptor(
    name="stabilizer",
    supports=_supports_stabilizer,
    cost=_cost_stabilizer,
    execute=_execute_stabilizer,
    default_qubit_budget=256,
    escape_hatch=(
        "the tableau is polynomial in qubits; this cap only guards "
        "pathological registers"
    ),
    # the packed tableau: two (2n, ceil(n/64)) uint64 word blocks plus
    # a 2n-byte phase vector — quadratic, so RAM autodetection lifts
    # the budget to the registry ceiling on any realistic machine
    state_bytes=lambda num_qubits: (
        32 * num_qubits * ((num_qubits + 63) // 64) + 2 * num_qubits
    ),
))
