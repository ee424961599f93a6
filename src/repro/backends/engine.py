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

One lowering turns a circuit into that noise model
(:func:`_lower_noisy_ops`): per layer, each gate with its local qubits,
the channels applied after it (the noise model's gate channels, or a
pulse gate's duration-scaled channel) and whether it draws the
parameter-transfer jitter of paper §IV-C (an uncalibrated pulse gate);
each active qubit's relaxation over the layer; and the layer's ZZ
angle.  :func:`_readout_relaxation` adds the measure window and the
measured qubits' relaxation during it.  Every back-end walks these two,
as do the statevector capability check and the telemetry channel
count, so a change to the noise model lands in one place.

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

A variational loop re-scores one circuit structure with new angles at
every evaluation, so the walk itself is compiled once per structure
(:func:`_compile_density`): the lowering, the memoized
superoperators, qubit checks and every pass's gather plan.
The program sits in the same memo, keyed by every value compiling reads
(:func:`_density_program_key`), so ``clear_caches`` drops it too.  Each
evaluation replays it: it builds only the superoperators that depend on
the angles (parametric gates, pulse gates, ``UnitaryGate``, jitter
kicks) and applies each pass as one gather and one matmul over a flat
ρ, which stays in the axis order the previous pass left it in and
returns to the canonical order once, at the end.  The ZZ diagonal is
multiplied in that order too, as one 4ⁿ product memoized per (angle,
order) while a program's products fit in ``_ZZ_PRODUCT_BYTES``, and as
its two 2ⁿ factors past that.  A replay whose leading jitter-free
layers repeat those of one of the program's last two replays starts
from the ρ that replay kept there (:meth:`_DensityProgram.replay`),
while those states fit in ``_REPLAY_RECORD_BYTES``.

The simulation back-ends sit in one fixed table, each with a capability
predicate, an executor and an active-qubit budget:

* ``"density_matrix"`` — exact mixed-state evolution, ``4**n`` memory;
  handles every noise process this library models (14 qubits);
* ``"statevector"`` — pure-state evolution, ``2**n`` memory; exact for
  circuits whose noise never touches the state (readout assignment
  error is classical and still applied) (26 qubits).

``method="auto"`` (the default) resolves per circuit through
:func:`select_method`: ``statevector`` when no noise touches the state,
``density_matrix`` otherwise (and for a circuit without active qubits,
which evolves nothing).  Running a circuit past its method's
budget raises a :class:`~repro.exceptions.BackendError` naming the
method, its budget, its escape hatch and the other method when it fits
and supports the circuit.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

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
from repro.exceptions import BackendError, SimulatorError
from repro.noise.channels import KrausChannel
from repro.noise.model import NoiseModel
from repro.simulators.density_matrix import (
    DensityMatrix,
    channel_superop,
    expand_superop,
    superop_plan,
    unitary_superop,
)
from repro.simulators.statevector import Statevector
from repro.telemetry.metrics import inc as metric_inc, observe as metric_observe
from repro.telemetry.records import record as telemetry_record, recording_enabled
from repro.telemetry.spans import span as telemetry_span
from repro.utils.bitstrings import index_to_bitstring
from repro.utils.cache import caching_enabled
from repro.utils.kernels import ApplyPlan, apply_plan, marginalize
from repro.utils.rng import as_generator, derive_seed

UnitaryProvider = Callable[[Instruction, tuple[int, ...]], np.ndarray]

#: most bytes a compiled density walk's replay records may hold: the ρ
#: before each resume point, for two replays (2 · resume points ·
#: 16 · 4ⁿ).  The paper's 6-qubit programs have up to 13 resume points,
#: 1.7 MB; a program past the bound keeps nothing and never resumes
_REPLAY_RECORD_BYTES = 2 << 20

#: the ``superop_cache`` key of a noise model's one replay-records slot
_REPLAY_RECORDS_KEY = ("density_replay_records",)

#: most bytes of ZZ products (16 · 4ⁿ each) one compiled density walk
#: may take from the superoperator memo.  The paper's 6-qubit programs
#: have 17–20 distinct products, about 1.25 MiB; a program past the bound
#: (more than 8 products at 7 qubits, 2 at 8, any at 9) keeps the 2ⁿ
#: factors and multiplies them at every replay
_ZZ_PRODUCT_BYTES = 2 << 20

#: share of the measure window the measured qubits relax for before
#: their state is read out
_READOUT_RELAXATION_FRACTION = 0.5

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
#: entangling axis Z_c X_t with the control as the gate's first qubit
_ZX_AXIS = np.kron(_PAULI_X, _PAULI_Z)


def _zz_diagonal(
    angle: float, pairs: tuple[tuple[int, int], ...], width: int
) -> np.ndarray:
    """Diagonal of one layer's ZZ crosstalk on the ``width``-qubit
    register: every coupled pair's ``exp(-i angle/2 ZZ)`` at once."""
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

    Carries the circuit and target it was derived from: the statevector
    capability predicate receives the plan (plus the noise model) and
    needs to inspect instruction content.  The rest
    reads no angle, so it is built once per circuit structure
    (:func:`_plan_structure`) and kept in ``target.plan_cache`` under
    :func:`_plan_key`; ``circuit`` is always the evaluation's own.
    """

    __slots__ = (
        "circuit",
        "target",
        "key",
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
        self.key = _plan_key(circuit, target)
        (
            self.measured_qubits,
            self.measured_clbits,
            self.active_list,
            self.local,
            self.num_local,
            self.layers,
            self.layer_durations,
            self.coupled_local_pairs,
        ) = target.plan_cache.get_or_compute(
            self.key, partial(_plan_structure, circuit, target)
        )


def _plan_key(circuit: QuantumCircuit, target: Target) -> tuple:
    """Every value of ``circuit`` its plan's structure reads.

    Per instruction its type, name, qubits, clbits and parameter count,
    plus a delay's or pulse gate's duration and a pulse gate's
    ``calibrated`` flag (the density program's key reads it from here).
    The target's gate durations are not in it: ``Target.set_duration``
    empties the memo instead.
    """
    entries = []
    for inst in circuit.instructions:
        op = inst.operation
        entry = (type(op), op.name, inst.qubits, inst.clbits, len(op.params))
        if isinstance(op, (Delay, PulseGate)):
            entry += (
                _operation_duration(inst, target),
                getattr(op, "calibrated", False),
            )
        entries.append(entry)
    return tuple(entries)


def _plan_structure(circuit: QuantumCircuit, target: Target) -> tuple:
    """A plan's per-structure fields, in ``_CircuitPlan.__slots__``
    order after ``key``: measured qubits and clbits, active qubits and
    their local map and count, layers, layer durations and coupled
    pairs."""
    measures = [
        inst
        for inst in circuit.instructions
        if isinstance(inst.operation, Measure)
    ]
    measured_qubits = [inst.qubits[0] for inst in measures]
    measured_clbits = [inst.clbits[0] for inst in measures]
    if len(set(measured_qubits)) != len(measured_qubits):
        raise BackendError("a qubit is measured twice")
    if len(set(measured_clbits)) != len(measured_clbits):
        raise BackendError("two measurements share a classical bit")
    active_list = sorted(_active_qubits(circuit))
    local = {phys: i for i, phys in enumerate(active_list)}
    layers, layer_durations = _layered_moments(circuit, target)
    coupled_local_pairs = [
        (local[a], local[b], a, b)
        for a, b in target.coupling.edges
        if a in local and b in local
    ]
    return (
        measured_qubits,
        measured_clbits,
        active_list,
        local,
        len(active_list),
        layers,
        layer_durations,
        coupled_local_pairs,
    )


def _active_qubits(circuit: QuantumCircuit) -> set[int]:
    active: set[int] = set()
    for inst in circuit.instructions:
        if isinstance(inst.operation, Measure):
            active.add(inst.qubits[0])
        elif not isinstance(inst.operation, Barrier):
            active.update(inst.qubits)
    return active


# ---------------------------------------------------------------------------
# lowering: the noise model, layer by layer
# ---------------------------------------------------------------------------

class _LoweredGate(NamedTuple):
    """One gate of a lowered layer: its index in the circuit, its local
    qubits, the channels applied after it and whether it draws a
    parameter-transfer jitter kick."""

    index: int
    instruction: CircuitInstruction
    qubits: tuple[int, ...]
    channels: tuple[KrausChannel, ...]
    jitter: bool


class _LoweredLayer(NamedTuple):
    """One ASAP layer: its gates, then each active qubit's relaxation,
    then the ZZ crosstalk of every coupled pair by ``zz_angle``."""

    gates: tuple[_LoweredGate, ...]
    relaxations: tuple[KrausChannel | None, ...]
    zz_angle: float | None


def _lower_noisy_ops(
    plan: _CircuitPlan,
    circuit: QuantumCircuit,
    noise_model: NoiseModel | None,
    target: Target,
) -> Iterator[_LoweredLayer]:
    """``circuit``'s layers with the noise model attached.

    A gate carries the noise model's channels for its name and qubits,
    or, for a pulse gate, its duration-scaled channel; an uncalibrated
    pulse gate draws jitter (paper §IV-C).  ``relaxations`` holds the
    relaxation channel of every active qubit in local order, ``None``
    where the qubit has no T1/T2.  It is empty, and ``zz_angle`` is
    ``None``, when the layer takes no time or there is no noise model;
    ``zz_angle`` is also ``None`` without ZZ crosstalk.  Nothing is
    checked here, so a capability predicate can read the lowering
    without raising; each back-end checks what it consumes.
    """
    for layer, duration in zip(plan.layers, plan.layer_durations):
        gates = []
        for index in layer:
            inst = circuit.instructions[index]
            op = inst.operation
            if isinstance(op, Delay):
                continue
            channels, jitter = (), False
            if noise_model is not None and isinstance(op, PulseGate):
                channel = noise_model.pulse_gate_channel(
                    op.num_qubits, _operation_duration(inst, target)
                )
                channels = () if channel is None else (channel,)
                jitter = not getattr(op, "calibrated", False)
            elif noise_model is not None:
                channels = tuple(
                    noise_model.gate_channels(op.name, inst.qubits)
                )
            qubits = tuple(plan.local[q] for q in inst.qubits)
            gates.append(_LoweredGate(index, inst, qubits, channels, jitter))
        relaxations, zz_angle = (), None
        if noise_model is not None and duration > 0:
            relaxations = tuple(
                noise_model.relaxation_channel(q, duration)
                for q in plan.active_list
            )
            zz_rate = noise_model.zz_crosstalk_ghz
            if zz_rate:
                zz_angle = 2 * math.pi * zz_rate * duration * target.dt
        yield _LoweredLayer(tuple(gates), relaxations, zz_angle)


def _readout_relaxation(
    plan: _CircuitPlan, noise_model: NoiseModel | None
) -> tuple[int, list[tuple[int, KrausChannel]]]:
    """The measure window, and ``(local qubit, channel)`` for each
    measured qubit that relaxes during
    ``_READOUT_RELAXATION_FRACTION`` of it."""
    window = plan.target.duration("measure", plan.measured_qubits)
    relaxations = []
    if noise_model is not None:
        effective = int(window * _READOUT_RELAXATION_FRACTION)
        for q in plan.measured_qubits:
            channel = noise_model.relaxation_channel(q, effective)
            if channel is not None:
                relaxations.append((plan.local[q], channel))
    return window, relaxations


def _check_channel_width(channel, qubits: Sequence[int]) -> None:
    """Refuse a noise channel attached to an operation of another width:
    silently acting on a qubit subset would be wrong physics."""
    if channel.num_qubits != len(qubits):
        raise BackendError(
            f"{channel.num_qubits}-qubit noise channel "
            f"{channel.name!r} attached to a {len(qubits)}-qubit "
            f"operation"
        )


def _jitter_draws(noise_model: NoiseModel, width: int) -> bool:
    """Whether a jittered gate on ``width`` qubits draws a kick
    (:func:`sample_jitter_kicks`)."""
    return noise_model.pulse_jitter_local > 0 or (
        noise_model.pulse_jitter_entangling > 0 and width == 2
    )


def _noise_touches_state(
    plan: _CircuitPlan, noise_model: NoiseModel | None
) -> bool:
    """Whether any configured noise acts on the quantum state itself.

    Relaxation (readout relaxation included) and ZZ crosstalk do
    whenever the model has them; otherwise a lowered gate's channel or
    jitter kick does.  Readout assignment error is *classical*
    post-processing of the measurement distribution, so a model
    carrying only readout error still admits pure-state simulation.
    """
    if noise_model is None:
        return False
    if noise_model.has_relaxation or noise_model.zz_crosstalk_ghz:
        return True
    return any(
        gate.channels
        or (gate.jitter and _jitter_draws(noise_model, len(gate.qubits)))
        for layer in _lower_noisy_ops(
            plan, plan.circuit, noise_model, plan.target
        )
        for gate in layer.gates
    )


def check_method_name(method: str) -> None:
    """Raise unless ``method`` is one of :data:`METHODS`."""
    if method not in METHODS:
        raise BackendError(
            f"unknown simulation method {method!r}; choose from {METHODS}"
        )


def select_method(
    circuit: QuantumCircuit,
    target: Target,
    noise_model: NoiseModel | None = None,
    method: str = "auto",
    _plan: "_CircuitPlan | None" = None,
) -> str:
    """Resolve ``method`` into a concrete back-end for this circuit.

    ``auto`` gives ``statevector`` when the circuit has active qubits
    and no noise touches their state (:func:`_supports_statevector`),
    and ``density_matrix`` otherwise: where both run a circuit,
    ``statevector`` has the larger budget and the lower cost.  A circuit
    without active qubits evolves nothing and reports ``density_matrix``,
    the table's first entry.
    """
    check_method_name(method)
    if method != "auto":
        return method
    plan = _plan if _plan is not None else _CircuitPlan(circuit, target)
    if plan.num_local and _supports_statevector(plan, noise_model):
        return "statevector"
    return "density_matrix"


def _check_qubit_budget(
    method: str, plan: _CircuitPlan, noise_model: NoiseModel | None
) -> None:
    """Raise when the circuit's active qubits exceed ``method``'s budget.

    The error names the method, its budget and escape hatch, and each
    other method whose budget admits the circuit and whose predicate
    accepts it.
    """
    entry = _METHODS[method]
    num_active = plan.num_local
    if num_active <= entry.qubit_budget:
        return
    alternatives = ", ".join(
        f"{name} (<= {other.qubit_budget} qubits)"
        for name, other in _METHODS.items()
        if name != method
        and num_active <= other.qubit_budget
        and other.supports(plan, noise_model)
    )
    message = (
        f"{num_active} active qubits exceed the {entry.qubit_budget}-qubit "
        f"{method} simulator budget; {entry.escape_hatch}"
    )
    if alternatives:
        message += f"; methods within budget: {alternatives}"
    raise BackendError(message)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

@dataclass
class _ExecutionRequest:
    """Everything one resolved method's executor reads; each method's
    executor receives ``(plan, request)``."""

    __slots__ = (
        "noise_model",
        "shots",
        "seed",
        "unitary_provider",
        "with_readout_error",
    )

    noise_model: NoiseModel | None
    shots: int
    seed: int | None | np.random.Generator
    unitary_provider: UnitaryProvider | None
    with_readout_error: bool


def execute_circuit(
    circuit: QuantumCircuit,
    target: Target,
    noise_model: NoiseModel | None = None,
    shots: int = 1024,
    seed: int | None | np.random.Generator = None,
    unitary_provider: UnitaryProvider | None = None,
    with_readout_error: bool = True,
    method: str = "auto",
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
    noise.
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    with telemetry_span("engine.execute", shots=int(shots)) as exec_span:
        with telemetry_span("engine.plan"):
            plan = _CircuitPlan(circuit, target)
        with telemetry_span("engine.select_method", requested=method):
            resolved = select_method(
                circuit, target, noise_model, method, _plan=plan
            )
        entry = _METHODS[resolved]
        if exec_span:
            exec_span.annotate(
                method=resolved,
                qubits=plan.num_local,
                depth=len(plan.layers),
            )
        _check_qubit_budget(resolved, plan, noise_model)

        if not plan.measured_qubits:
            return ExperimentResult(
                Counts({}),
                sum(plan.layer_durations),
                metadata={
                    "active_qubits": list(plan.active_list),
                    "method": resolved,
                },
            )

        with telemetry_span("engine.kernel", method=resolved):
            result = entry.execute(
                plan,
                _ExecutionRequest(
                    noise_model=noise_model,
                    shots=shots,
                    seed=seed,
                    unitary_provider=unitary_provider,
                    with_readout_error=with_readout_error,
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
            wall_seconds=wall,
            cpu_seconds=time.process_time() - cpu_start,
        )
    return result


def _noise_channel_count(
    plan: _CircuitPlan, noise_model: NoiseModel | None
) -> int:
    """Count of the gate and pulse channels the lowering attaches.

    Telemetry-record bookkeeping only (the channel lookups are memoized
    on the noise model); computed solely when recording is enabled.
    """
    return sum(
        len(gate.channels)
        for layer in _lower_noisy_ops(
            plan, plan.circuit, noise_model, plan.target
        )
        for gate in layer.gates
    )


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
    rng = as_generator(request.seed)
    effective_noise = (
        request.noise_model if resolved == "density_matrix" else None
    )
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
    window, relaxations = _readout_relaxation(plan, effective_noise)
    for qubit, channel in relaxations:
        state.apply_channel(channel, [qubit])

    marginal = marginalize(
        state.probabilities(),
        [plan.local[q] for q in plan.measured_qubits],
        plan.num_local,
    )
    noise_model = request.noise_model
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
        total_duration + window,
        metadata=_result_metadata(plan, resolved),
    )


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
    for layer in _lower_noisy_ops(plan, circuit, None, target):
        for _index, inst, qubits, _channels, _jitter in layer.gates:
            matrix = _resolve_unitary(
                inst.operation, inst.qubits, unitary_provider
            )
            state.evolve(matrix, qubits)
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

    The circuit structure's walk is compiled once
    (:func:`_compile_density`) and kept in the noise model's
    superoperator memo under every value compiling it reads
    (:func:`_density_program_key`); each evaluation replays it with its
    own gates (:meth:`_DensityProgram.replay`).  Without a noise model,
    or under :func:`~repro.utils.cache.caching_disabled`, it compiles
    every time.  Outcomes go to the ``engine.density_programs`` counter
    (``resumed`` for a replay that started past layer 0), the passes a
    replay applies to ``engine.density_passes``.
    """
    compiled = False

    def compile_program() -> _DensityProgram:
        nonlocal compiled
        compiled = True
        return _compile_density(plan, circuit, noise_model, target)

    if noise_model is None:
        program = compile_program()
    else:
        program = noise_model.superop_cache.get_or_compute(
            _density_program_key(plan, noise_model, target),
            compile_program,
        )
    state, start, superops, diagonals = program.replay(
        circuit, noise_model, rng, unitary_provider
    )
    metric_inc(
        "engine.density_programs",
        outcome="compiled" if compiled else "resumed" if start else "reused",
    )
    metric_inc("engine.density_passes", superops, kind="superop")
    metric_inc("engine.density_passes", diagonals, kind="diagonal")
    return state, program.duration


def _density_program_key(
    plan: _CircuitPlan, noise_model: NoiseModel, target: Target
) -> tuple:
    """Every value :func:`_compile_density` reads.

    The plan's key (:func:`_plan_key`), which fixes the layering, which
    gates are static and each pulse gate's channel and jitter kick; the
    layer durations, ``target.dt`` and the coupled pairs (relaxation and
    ZZ); the noise model's T1, T2, ``dt``, gate channels, pulse error
    rates and ZZ rate.  Channel
    objects sit in the key themselves, never by ``id()``, so an entry
    keeps what it names alive.  The jitter sigmas are read at replay,
    not here.
    """
    return (
        "density_program",
        plan.key,
        tuple(plan.layer_durations),
        target.dt,
        tuple((la, lb) for la, lb, _a, _b in plan.coupled_local_pairs),
        tuple(noise_model.t1),
        tuple(noise_model.t2),
        noise_model.dt,
        noise_model.gate_errors_key(),
        noise_model.pulse_error_per_dt_1q,
        noise_model.pulse_error_per_dt_2q,
        noise_model.zz_crosstalk_ghz,
    )


@dataclass(frozen=True)
class _CompiledGate:
    """One gate of a compiled density walk: what its superoperator
    ``R · K · C · (U ⊗ U*)`` needs besides ``U``.

    ``channels`` are the superoperators of its gate or pulse channels
    ``C``; ``jitter`` says whether it draws a jitter kick ``K`` (an
    uncalibrated pulse gate, paper §IV-C); ``relaxation`` is the layer's
    relaxation ``R`` of its qubits, or ``None`` when one of them has no
    T1/T2 (those qubits then relax in the idle pass).
    """

    index: int
    width: int
    channels: tuple[np.ndarray, ...]
    jitter: bool
    relaxation: np.ndarray | None

    def superop(
        self,
        unitary: np.ndarray,
        noise_model: NoiseModel | None,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        if unitary.shape != (1 << self.width,) * 2:
            raise SimulatorError(
                f"unitary of shape {unitary.shape} does not act on "
                f"{self.width} qubit(s)"
            )
        superop = unitary_superop(unitary)
        for channel in self.channels:
            superop = channel @ superop
        if self.jitter:
            kick = _jitter_unitary(self.width, noise_model, rng)
            if kick is not None:
                superop = unitary_superop(kick) @ superop
        if self.relaxation is not None:
            superop = self.relaxation @ superop
        return superop


@dataclass(frozen=True)
class _DensityProgram:
    """One circuit structure's fused density walk, compiled.

    ``layers`` holds, per layer, ``(operands, gates, passes, diagonal,
    resume)``: the layer's superoperators with a ``None`` slot for each
    one built per evaluation; ``(slot, gate)`` for those, in instruction
    order; one ``(gather, low, high)`` per superoperator pass (the
    superoperator in slot ``low``, or the tensor product of slots
    ``low`` and ``high`` on two single qubits); the ZZ crosstalk as
    ``(shape, row, column)`` factors (:func:`_diagonal_factors`), as
    ``(shape, row · column, None)`` when the program keeps products, or
    ``None``; and whether the layer is a resume point.  ρ stays in the
    axis order the previous pass left it in; ``final`` gathers it back
    to the canonical order once.

    A *resume point* is a layer with per-evaluation gates, up to and
    including the first layer with a jitter kick; ``resume_points``
    lists their indices, or is empty when two replays' ρ before each
    would take more than ``_REPLAY_RECORD_BYTES``.  The ρ before one
    depends only on the per-evaluation unitaries of the resume points
    before it.
    """

    num_qubits: int
    layers: tuple
    final: ApplyPlan
    duration: int
    resume_points: tuple[int, ...]

    def replay(
        self,
        circuit: QuantumCircuit,
        noise_model: NoiseModel | None,
        rng: np.random.Generator,
        unitary_provider: UnitaryProvider | None,
    ) -> tuple[DensityMatrix, int, int, int]:
        """Run the walk on ``circuit``, an evaluation of the compiled
        structure.

        Every per-evaluation unitary is resolved first, which reads no
        RNG.  The walk starts at the deepest resume point whose earlier
        resume points' unitaries (dtype, shape and bytes) equal those of
        one of the last two replays of this program, from the ρ that
        replay held there.  Those records sit in one slot of the noise
        model's superoperator memo, for the most recently replayed
        program only, so ``clear_caches`` and pickling drop them.  The
        layers a replay skips draw no RNG, so ρ and the RNG state are
        those of a walk from layer 0.  Each walked layer builds its
        per-evaluation superoperators in instruction order (so jitter
        kicks draw the RNG stream the op-by-op walk draws), then applies
        each pass as one gather and one matmul.  ρ is kept as a resume
        point begins, with a superoperator pass that writes a new array,
        so nothing writes a kept ρ again.  Without a noise model, under
        :func:`~repro.utils.cache.caching_disabled` or without resume
        points nothing is compared or kept.

        Returns ``(state, start layer, superop passes, diagonal
        passes)``, the passes being those applied.
        """
        instructions = circuit.instructions
        unitaries = [
            [
                _resolve_unitary(
                    instructions[gate.index].operation,
                    instructions[gate.index].qubits,
                    unitary_provider,
                )
                for _slot, gate in layer[1]
            ]
            for layer in self.layers
        ]
        remember = (
            noise_model is not None
            and bool(self.resume_points)
            and caching_enabled()
        )
        records = ()
        if remember:
            inputs = tuple(
                tuple(
                    (u.dtype.str, u.shape, u.tobytes()) for u in unitaries[i]
                )
                for i in self.resume_points
            )
            holder = noise_model.superop_cache.get_or_compute(
                _REPLAY_RECORDS_KEY, lambda: [None]
            )
            if holder[0] is not None and holder[0][0] is self:
                records = holder[0][1]
        state = DensityMatrix(self.num_qubits)
        rho = state.data.reshape(-1)
        kept: list[np.ndarray] = []
        resumed_at = -1  # index into resume_points
        for record_inputs, record_kept in records:
            depth = 0
            while (
                depth + 1 < len(inputs)
                and inputs[depth] == record_inputs[depth]
            ):
                depth += 1
            if depth > resumed_at:
                resumed_at = depth
                kept, rho = record_kept[:depth], record_kept[depth]
        start = self.resume_points[resumed_at] if resumed_at >= 0 else 0
        superops = diagonals = 0
        for layer, layer_unitaries in zip(
            self.layers[start:], unitaries[start:]
        ):
            operands, gates, passes, diagonal, resume = layer
            if resume and remember:
                kept.append(rho)
            values = list(operands)
            for (slot, gate), unitary in zip(gates, layer_unitaries):
                values[slot] = gate.superop(unitary, noise_model, rng)
            for gather, low, high in passes:
                superop = (
                    values[low]
                    if high is None
                    else expand_superop(values[low], values[high])
                )
                rho = (superop @ gather.gather(rho)).reshape(-1)
            superops += len(passes)
            if diagonal is not None:
                shape, row, column = diagonal
                view = rho.reshape(shape)
                np.multiply(
                    view, row if column is None else row * column, out=view
                )
                diagonals += 1
        if remember:
            holder[0] = (self, [(inputs, kept), *records[:1]])
        state.data = self.final.gather(rho).reshape(state.data.shape)
        return state, start, superops, diagonals


def _compile_density(
    plan: _CircuitPlan,
    circuit: QuantumCircuit,
    noise_model: NoiseModel | None,
    target: Target,
) -> _DensityProgram:
    """Compile the fused walk of ``circuit``'s structure.

    Per lowered layer (:func:`_lower_noisy_ops`): one superoperator pass
    per multi-qubit gate — relaxation · jitter kick · channels ·
    ``U ⊗ U*`` (:class:`_CompiledGate`) — then the layer's single-qubit
    maps, 1-qubit gates composed the same way and the idle qubits'
    relaxation, two to a pass, then one diagonal pass for the ZZ
    crosstalk of every coupled pair.  The lowering, channel-width checks
    and every pass's gather plan (:func:`superop_plan`, from the axis
    order the pass before leaves) happen here, once.  Static gates, idle
    relaxations, pairs of them, ZZ diagonals and their 4ⁿ products in
    the axis order ρ has at their layer come from the noise model's
    superoperator memo; a program whose distinct products would pass
    ``_ZZ_PRODUCT_BYTES`` keeps the factors instead.  Parametric gates,
    pulse gates and ``UnitaryGate`` are left to the replay.  Layers with
    such gates are resume points until the first one that draws a
    jitter kick, which is the last; a program whose replay records would
    pass ``_REPLAY_RECORD_BYTES`` lists none.
    """
    num_qubits = plan.num_local
    memo = noise_model.superop_cache if noise_model is not None else None

    def cached(key, compute):
        return compute() if memo is None else memo.get_or_compute(key, compute)

    def add_pass(low: int, high: int | None, qubits: Sequence[int]) -> None:
        nonlocal order
        gather = superop_plan(num_qubits, tuple(qubits), order)
        order = gather.result_order
        passes.append((gather, low, high))

    zz_pairs = tuple((la, lb) for la, lb, _a, _b in plan.coupled_local_pairs)
    order = tuple(range(2 * num_qubits))
    layers = []
    jitter_seen = False
    for lowered in _lower_noisy_ops(plan, circuit, noise_model, target):
        # an untimed layer relaxes no qubit: each gate's memo key then
        # holds one None per qubit, like a qubit without T1/T2
        layer_relaxations = lowered.relaxations or (None,) * num_qubits
        operands: list[np.ndarray | None] = []
        gates: list[tuple[int, _CompiledGate]] = []
        passes: list[tuple] = []
        relaxed: set[int] = set()
        # (slot, local qubit, memo key or None when built per evaluation)
        singles: list[tuple[int, int, object]] = []
        for index, inst, qubits, channels, jitter in lowered.gates:
            for channel in channels:
                _check_channel_width(channel, qubits)
            relaxations = tuple(layer_relaxations[q] for q in qubits)
            gate = _CompiledGate(
                index,
                len(qubits),
                tuple(channel_superop(channel) for channel in channels),
                jitter,
                _relaxation_superop(relaxations),
            )
            if gate.relaxation is not None:
                relaxed.update(qubits)
            op = inst.operation
            if _is_static(op):
                # the channel objects, not qubits or durations: a changed
                # noise model yields new ones, so it misses instead of
                # meeting a stale superoperator
                key = (op.name, channels, relaxations)
                operands.append(
                    cached(
                        key,
                        lambda: gate.superop(
                            _resolve_unitary(op, inst.qubits, None),
                            noise_model,
                            None,
                        ),
                    )
                )
            else:
                key = None
                operands.append(None)
                gates.append((len(operands) - 1, gate))
            slot = len(operands) - 1
            if len(qubits) == 1:
                singles.append((slot, qubits[0], key))
            else:
                add_pass(slot, None, qubits)
        for qubit, channel in enumerate(lowered.relaxations):
            if qubit not in relaxed and channel is not None:
                operands.append(channel_superop(channel))
                singles.append((len(operands) - 1, qubit, channel))
        for (low, q_low, k_low), (high, q_high, k_high) in zip(
            singles[0::2], singles[1::2]
        ):
            if k_low is not None and k_high is not None:
                operands.append(
                    cached(
                        (k_low, k_high),
                        partial(
                            expand_superop, operands[low], operands[high]
                        ),
                    )
                )
                add_pass(len(operands) - 1, None, [q_low, q_high])
            else:
                add_pass(low, high, [q_low, q_high])
        if len(singles) % 2:
            slot, qubit, _key = singles[-1]
            add_pass(slot, None, [qubit])
        angle = lowered.zz_angle
        zz = (angle, order) if angle is not None and zz_pairs else None
        resume = bool(gates) and not jitter_seen
        jitter_seen = jitter_seen or any(gate.jitter for _slot, gate in gates)
        layers.append(
            (tuple(operands), tuple(gates), tuple(passes), zz, resume)
        )
    distinct = {layer[3] for layer in layers} - {None}
    keep_products = len(distinct) * (16 << 2 * num_qubits) <= _ZZ_PRODUCT_BYTES

    def zz_pass(angle: float, order: tuple[int, ...]) -> tuple:
        shape, row, column = _diagonal_factors(
            cached(
                (angle, zz_pairs, num_qubits),
                partial(_zz_diagonal, angle, zz_pairs, num_qubits),
            ),
            order,
            num_qubits,
        )
        if not keep_products:
            return shape, row, column
        return shape, cached(
            (angle, zz_pairs, num_qubits, order), lambda: row * column
        ), None

    layers = [
        (operands, gates, passes, zz and zz_pass(*zz), resume)
        for operands, gates, passes, zz, resume in layers
    ]
    resume_points = tuple(
        index for index, layer in enumerate(layers) if layer[4]
    )
    if 2 * len(resume_points) * (16 << 2 * num_qubits) > _REPLAY_RECORD_BYTES:
        resume_points = ()
    return _DensityProgram(
        num_qubits,
        tuple(layers),
        apply_plan(2 * num_qubits, tuple(range(2 * num_qubits)), order),
        sum(plan.layer_durations),
        resume_points,
    )


def _diagonal_factors(
    diagonal: np.ndarray, order: tuple[int, ...], num_qubits: int
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """``rho -> D rho D†`` for ``D = diag(diagonal)`` on a density tensor
    stored in axis ``order`` (as :func:`superop_plan` counts axes).

    Returns the shape to view ρ in — adjacent row axes merged, adjacent
    column axes merged — and the row factor ``d`` and column factor
    ``d*`` reshaped to broadcast over it.  Their product is
    :meth:`DensityMatrix.apply_diagonal_unitary`'s ``outer(d, d*)`` in
    that order; each factor has ``2**n`` entries.
    """
    blocks: list[list] = []  # [is row axes, axis count]
    for axis in order:
        is_row = axis < num_qubits
        if blocks and blocks[-1][0] == is_row:
            blocks[-1][1] += 1
        else:
            blocks.append([is_row, 1])
    shape = tuple(1 << count for _is_row, count in blocks)
    tensor = diagonal.reshape((2,) * num_qubits)
    row = tensor.transpose(
        [axis for axis in order if axis < num_qubits]
    ).reshape([
        size if is_row else 1 for (is_row, _), size in zip(blocks, shape)
    ])
    column = tensor.conj().transpose(
        [axis - num_qubits for axis in order if axis >= num_qubits]
    ).reshape([
        1 if is_row else size for (is_row, _), size in zip(blocks, shape)
    ])
    return shape, row, column


def _is_static(op: Instruction) -> bool:
    """Whether ``op``'s superoperator is fixed by its name: a library
    gate without parameters (``cx``, ``sx``, ``x``...).  Parametric
    gates, pulse gates and ``UnitaryGate`` are built per evaluation."""
    return isinstance(op, StandardGate) and not op.params


def sample_jitter_kicks(
    num_qubits: int,
    sigma_local: float,
    sigma_entangling: float,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Random pulse-jitter kicks for an uncalibrated pulse gate.

    Returns ``(kick_matrix, relative_positions)`` pairs, where positions
    index into the gate's qubit tuple.  The draw order (three normals
    per qubit for the local kick, then one for the entangling kick)
    matches the historical density-matrix engine bit-for-bit, so fixed
    seeds reproduce the seed path's results.
    """
    kicks: list[tuple[np.ndarray, tuple[int, ...]]] = []
    if sigma_local > 0:
        for position in range(num_qubits):
            hx, hy, hz = rng.normal(0.0, sigma_local / 2, 3)
            norm = math.sqrt(hx * hx + hy * hy + hz * hz)
            if norm < 1e-15:
                continue
            kick = (
                math.cos(norm) * np.eye(2)
                - 1j
                * math.sin(norm)
                / norm
                * (hx * _PAULI_X + hy * _PAULI_Y + hz * _PAULI_Z)
            )
            kicks.append((kick, (position,)))
    if sigma_entangling > 0 and num_qubits == 2:
        angle = rng.normal(0.0, sigma_entangling)
        kick = (
            math.cos(angle / 2) * np.eye(4)
            - 1j * math.sin(angle / 2) * _ZX_AXIS
        )
        kicks.append((kick, (0, 1)))
    return kicks


def _jitter_unitary(
    width: int, noise_model: NoiseModel, rng: np.random.Generator
) -> np.ndarray | None:
    """The jitter kicks of one uncalibrated pulse gate as one unitary.

    The kicks come from :func:`sample_jitter_kicks`.  ``None`` when no
    kick was drawn.
    """
    total = None
    for kick, positions in sample_jitter_kicks(
        width,
        noise_model.pulse_jitter_local,
        noise_model.pulse_jitter_entangling,
        rng,
    ):
        if len(positions) < width:
            kick = _embed_kick(kick, positions[0], width)
        total = kick if total is None else kick @ total
    return total


def _embed_kick(kick: np.ndarray, position: int, width: int) -> np.ndarray:
    """``I ⊗ kick ⊗ I`` with the 2×2 ``kick`` on qubit ``position`` of a
    ``width``-qubit gate, written in place: one copy of ``kick`` per
    value of the other qubits' bits, on the diagonal blocks they
    select."""
    high, low = 1 << (width - 1 - position), 1 << position
    embedded = np.zeros((high, 2, low, high, 2, low), dtype=complex)
    for h in range(high):
        for g in range(low):
            embedded[h, :, g, h, :, g] = kick
    return embedded.reshape(1 << width, 1 << width)


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
        "active_qubits": list(plan.active_list),
        "measured_qubits": list(plan.measured_qubits),
        "clbit_to_qubit": dict(
            zip(plan.measured_clbits, plan.measured_qubits)
        ),
        "method": resolved,
    }


def _assemble_counts(
    observed: Sequence[int],
    values: Sequence[int],
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


def execute_circuits(
    circuits: Sequence[QuantumCircuit],
    target: Target,
    noise_model: NoiseModel | None = None,
    shots: int = 1024,
    seed: int | None | np.random.Generator = None,
    seeds: Sequence[int | None | np.random.Generator] | None = None,
    unitary_provider: UnitaryProvider | None = None,
    with_readout_error: bool = True,
    method: str = "auto",
) -> list[ExperimentResult]:
    """Run a batch of circuits, amortizing shared derivation work.

    The batch leans on the persistent memo layers — circuit plans on the
    target, relaxation/pulse channels and compiled density walks on the
    noise model, pulse propagators and calibrations on the device — so
    a parameter sweep pays layering, channel construction and
    calibration once instead of once per circuit.

    Seeding: when ``seeds`` is given it supplies one entry per circuit
    and ``execute_circuits(cs, seeds=[s0, ...])`` returns exactly what
    ``[execute_circuit(c, seed=s) for c, s in zip(cs, seeds)]`` would.
    Otherwise per-circuit seeds derive from ``seed`` via
    ``derive_seed(seed, "batch", index)`` (a Generator is shared
    sequentially, which is likewise identical to sequential calls).

    ``method`` applies to every circuit of the batch (``"auto"``
    resolves per circuit).
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
    return [
        execute_circuit(
            circuit,
            target,
            noise_model=noise_model,
            shots=shots,
            seed=circuit_seed,
            unitary_provider=unitary_provider,
            with_readout_error=with_readout_error,
            method=method,
        )
        for circuit, circuit_seed in zip(circuits, seeds)
    ]


# ---------------------------------------------------------------------------
# the simulation methods
# ---------------------------------------------------------------------------

def _supports_any(plan: _CircuitPlan, noise_model) -> bool:
    """The density matrix handles every modelled noise."""
    return True


def _supports_statevector(plan: _CircuitPlan, noise_model) -> bool:
    return not _noise_touches_state(plan, noise_model)


class _Method(NamedTuple):
    """One simulation back-end of :data:`_METHODS`."""

    #: capability predicate over ``(plan, noise_model)``
    supports: Callable
    #: ``execute(plan, request) -> ExperimentResult``
    execute: Callable
    #: most active qubits the method runs
    qubit_budget: int
    #: advice the budget error appends
    escape_hatch: str


#: every simulation back-end
_METHODS = {
    "density_matrix": _Method(
        _supports_any,
        partial(_execute_exact, resolved="density_matrix"),
        14,
        "exact mixed-state evolution holds the full 4^n operator — "
        'noiseless circuits run on method="statevector"',
    ),
    "statevector": _Method(
        _supports_statevector,
        partial(_execute_exact, resolved="statevector"),
        26,
        "pure states scale 2^n",
    ),
}

#: the valid ``method=`` names (the ``--method`` choices)
METHODS = ("auto", *_METHODS)
