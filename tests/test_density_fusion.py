"""The fused density-matrix walk against two reference walks.

The engine's density back-end composes everything that happens to a
gate's qubits within one layer — unitary, channels, jitter kick and the
layer's relaxation — into one superoperator, applies a layer's
single-qubit maps two to a pass, and applies its ZZ crosstalk as one
elementwise pass.  :func:`reference_evolve` keeps
the unfused walk: two-sided unitaries, one pass per channel, per-kick
jitter, per-qubit relaxation and per-pair ``rzz``.  Fusion only
reorders operations on disjoint qubits, so the two walks agree up to
float rounding: that gate is a tolerance, not ``==``.

The engine compiles that fused walk once per circuit structure and
replays it over a ρ kept in whatever axis order the previous pass left.
:func:`layer_walk_evolve` keeps the fused walk as it ran before
compilation — every lookup per evaluation, ρ back in canonical order
after every pass — and the compiled walk must equal it exactly up to
six qubits (the same superoperators meet the same columns; only their
memory order differs), and within :data:`TOLERANCE` above.
"""

import copy
import math
import pickle
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.linalg import expm

from repro.backends import FakeGuadalupe, FakeToronto
from repro.backends.engine import (
    _check_channel_width,
    _CircuitPlan,
    _compile_density,
    _embed_kick,
    _evolve_exact,
    _is_static,
    _jitter_unitary,
    _operation_duration,
    _relaxation_superop,
    _REPLAY_RECORDS_KEY,
    _resolve_unitary,
    _ZZ_PRODUCT_BYTES,
    _zz_diagonal,
    sample_jitter_kicks,
)
from repro.circuits import QuantumCircuit
from repro.circuits.gates import Delay, PulseGate, standard_gate
from repro.core import (
    ExecutionPipeline,
    GateLevelModel,
    HybridGatePulseModel,
    PulseLevelModel,
)
from repro.exceptions import SimulatorError
from repro.noise.channels import (
    depolarizing_channel,
    thermal_relaxation_channel,
)
from repro.problems import MaxCutProblem, benchmark_graph
from repro.simulators.density_matrix import (
    DensityMatrix,
    channel_superop,
    expand_superop,
    unitary_superop,
)
from repro.telemetry.metrics import metrics_baseline, metrics_delta
from repro.utils.cache import caching_disabled
from repro.utils.kernels import apply_matrix_flat, apply_plan
from repro.utils.linalg import embed_matrix, kron_all
from repro.vqa import ExpectedCutCost

#: max|Δρ| allowed between the fused and the reference walk; the
#: measured gap on the paper workloads is about 1e-15
TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# the unfused reference walk
# ---------------------------------------------------------------------------

def _zz_unitary(angle: float) -> np.ndarray:
    """One coupled pair's ZZ crosstalk over a layer, ``exp(-i angle/2 ZZ)``."""
    return np.diag(np.exp(-1j * angle / 2 * np.array([1.0, -1.0, -1.0, 1.0])))


def _one_sided(rho, matrix, qubits, side):
    """``matrix`` on the row (side 'L') or its conjugate on the column
    (side 'R') indices of ``rho``."""
    n = rho.shape[0].bit_length() - 1
    offset = 0 if side == "L" else n
    axes = tuple(offset + n - 1 - q for q in reversed(qubits))
    mat = matrix if side == "L" else matrix.conj()
    flat = apply_matrix_flat(mat, rho.reshape(-1), apply_plan(2 * n, axes))
    return flat.reshape(rho.shape)


def _two_sided(rho, matrix, qubits):
    matrix = np.asarray(matrix, dtype=complex)
    rho = _one_sided(rho, matrix, qubits, "L")
    return _one_sided(rho, matrix, qubits, "R")


def _channel(rho, channel, qubits):
    n = rho.shape[0].bit_length() - 1
    superop = sum(np.kron(op, op.conj()) for op in channel.kraus_ops)
    axes = tuple(n - 1 - q for q in reversed(qubits)) + tuple(
        2 * n - 1 - q for q in reversed(qubits)
    )
    flat = apply_matrix_flat(superop, rho.reshape(-1), apply_plan(2 * n, axes))
    return flat.reshape(rho.shape)


def reference_evolve(plan, noise_model, rng, unitary_provider):
    """The op-by-op density walk the fused one replaced.

    Returns ``(rho, total_duration)``.
    """
    circuit, target = plan.circuit, plan.target
    rho = np.zeros((1 << plan.num_local,) * 2, dtype=complex)
    rho[0, 0] = 1.0
    zz_rate = noise_model.zz_crosstalk_ghz if noise_model else 0.0
    total_duration = 0
    for layer, duration in zip(plan.layers, plan.layer_durations):
        for idx in layer:
            inst = circuit.instructions[idx]
            op = inst.operation
            if isinstance(op, Delay):
                continue
            qubits = [plan.local[q] for q in inst.qubits]
            matrix = _resolve_unitary(op, inst.qubits, unitary_provider)
            rho = _two_sided(rho, matrix, qubits)
            if noise_model is None:
                continue
            if isinstance(op, PulseGate):
                channel = noise_model.pulse_gate_channel(
                    op.num_qubits, _operation_duration(inst, target)
                )
                if channel is not None:
                    rho = _channel(rho, channel, qubits)
                if not getattr(op, "calibrated", False):
                    for kick, positions in sample_jitter_kicks(
                        len(qubits),
                        noise_model.pulse_jitter_local,
                        noise_model.pulse_jitter_entangling,
                        rng,
                    ):
                        rho = _two_sided(
                            rho, kick, [qubits[p] for p in positions]
                        )
            else:
                for channel in noise_model.gate_channels(
                    op.name, inst.qubits
                ):
                    rho = _channel(rho, channel, qubits)
        if noise_model is not None and duration > 0:
            for phys in plan.active_list:
                channel = noise_model.relaxation_channel(phys, duration)
                if channel is not None:
                    rho = _channel(rho, channel, [plan.local[phys]])
            if zz_rate:
                angle = 2 * math.pi * zz_rate * duration * target.dt
                rzz = np.diag(
                    np.exp(-1j * angle / 2 * np.array([1.0, -1.0, -1.0, 1.0]))
                )
                for la, lb, _a, _b in plan.coupled_local_pairs:
                    rho = _two_sided(rho, rzz, [la, lb])
        total_duration += duration
    return rho, total_duration


# ---------------------------------------------------------------------------
# the per-layer fused walk, before compilation
# ---------------------------------------------------------------------------

def layer_walk_evolve(plan, noise_model, rng, unitary_provider):
    """The fused walk as it ran per evaluation before it was compiled.

    Per layer: one superoperator pass per multi-qubit gate, then the
    single-qubit maps two to a pass, then the ZZ diagonal, each through
    :meth:`DensityMatrix.apply_superop` in canonical order; relaxation
    and channel lookups, memo keys and checks every time.  Returns
    ``(rho, total_duration)``.
    """
    circuit, target = plan.circuit, plan.target
    state = DensityMatrix(plan.num_local)
    memo = noise_model.superop_cache if noise_model is not None else None
    zz_rate = (
        getattr(noise_model, "zz_crosstalk_ghz", 0.0) if noise_model else 0.0
    )
    zz_pairs = tuple((la, lb) for la, lb, _a, _b in plan.coupled_local_pairs)
    total_duration = 0
    for layer, duration in zip(plan.layers, plan.layer_durations):
        timed = noise_model is not None and duration > 0
        relaxed = set()
        # (superop, local qubit, memo key or None when built per call)
        singles = []
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
                _layer_walk_gate_superop, inst, qubits, noise_model, rng,
                target, unitary_provider, relaxations,
            )
            key = None
            if memo is not None and _is_static(op):
                # tagged: the compiled walk memoizes bare superoperators
                # under the untagged key
                key = (
                    "layer_walk",
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
        if timed:
            for phys in plan.active_list:
                if plan.local[phys] in relaxed:
                    continue
                channel = noise_model.relaxation_channel(phys, duration)
                if channel is not None:
                    singles.append(
                        (channel_superop(channel), plan.local[phys], channel)
                    )
        _layer_walk_pairs(state, singles, memo)
        if timed and zz_rate and zz_pairs:
            angle = 2 * math.pi * zz_rate * duration * target.dt
            state.apply_diagonal_unitary(
                memo.get_or_compute(
                    (angle, zz_pairs, plan.num_local),
                    partial(_zz_diagonal, angle, zz_pairs, plan.num_local),
                )
            )
        total_duration += duration
    return state.data, total_duration


def _layer_walk_gate_superop(
    inst, qubits, noise_model, rng, target, unitary_provider, relaxations
):
    """``R · K · C · (U ⊗ U*)`` of one gate, and whether the layer's
    relaxation ``R`` of its qubits is folded in."""
    superop = unitary_superop(
        _resolve_unitary(inst.operation, inst.qubits, unitary_provider)
    )
    if noise_model is None:
        return superop, False
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
    relaxation = _relaxation_superop(relaxations)
    if relaxation is None:
        return superop, False
    return relaxation @ superop, True


def _layer_walk_pairs(state, singles, memo):
    """A layer's single-qubit maps two to a 16×16 pass, an odd one
    alone; a pair of two memoized maps is memoized under their keys."""
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


def assert_compiled_equals_layer_walk(
    circuit, backend, noise_model, unitary_provider=None, seed=7
):
    """The compiled walk and :func:`layer_walk_evolve` from equal seeds:
    ρ ``==`` up to six qubits and within :data:`TOLERANCE` above, equal
    duration, equal RNG state afterwards.  Returns the compiled walk's
    ρ."""
    plan = _CircuitPlan(circuit, backend.target)
    compiled_rng = np.random.default_rng(seed)
    state, duration = _evolve_exact(
        plan, circuit, "density_matrix", noise_model, compiled_rng,
        unitary_provider, backend.target,
    )
    walk_rng = np.random.default_rng(seed)
    rho, walk_duration = layer_walk_evolve(
        plan, noise_model, walk_rng, unitary_provider
    )
    if plan.num_local <= 6:
        assert np.array_equal(state.data, rho)
    else:
        assert np.max(np.abs(state.data - rho)) <= TOLERANCE
    assert duration == walk_duration
    assert compiled_rng.bit_generator.state == walk_rng.bit_generator.state
    return state.data


def assert_fused_matches_reference(
    circuit, backend, noise_model, unitary_provider=None, seed=7
):
    """Both walks from equal seeds: ρ within TOLERANCE, equal duration,
    equal RNG state afterwards.  Returns the plan and the fused walk's
    generator."""
    plan = _CircuitPlan(circuit, backend.target)
    fused_rng = np.random.default_rng(seed)
    state, duration = _evolve_exact(
        plan, circuit, "density_matrix", noise_model, fused_rng,
        unitary_provider, backend.target,
    )
    reference_rng = np.random.default_rng(seed)
    rho, reference_duration = reference_evolve(
        plan, noise_model, reference_rng, unitary_provider
    )
    assert np.max(np.abs(state.data - rho)) <= TOLERANCE
    assert duration == reference_duration
    assert (
        fused_rng.bit_generator.state == reference_rng.bit_generator.state
    )
    return plan, fused_rng


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def guadalupe():
    return FakeGuadalupe()


@pytest.fixture(scope="module")
def toronto():
    return FakeToronto()


@pytest.fixture(scope="module")
def task1():
    return MaxCutProblem(benchmark_graph(1))


def golden_circuit(num_qubits=4):
    qc = QuantumCircuit(num_qubits, num_qubits)
    qc.h(0)
    for i in range(num_qubits - 1):
        qc.cx(i, i + 1)
    qc.rz(0.37, 1)
    qc.sx(2)
    qc.measure_all()
    return qc


def pulse_gate(unitary, duration, calibrated=False):
    """A pulse gate carrying its unitary, as the models build them."""
    gate = PulseGate(
        schedule=None,
        num_qubits=unitary.shape[0].bit_length() - 1,
        label="test_pulse",
    )
    gate.unitary = unitary
    gate.duration = duration
    gate.calibrated = calibrated
    return gate


def jitter_order_circuit():
    """Layers in which an uncalibrated 1-qubit pulse gate precedes an
    uncalibrated 2-qubit one: building a layer's multi-qubit maps first
    would hand each gate the other's jitter kicks."""
    qc = QuantumCircuit(4, 4)
    qc.append(pulse_gate(random_unitary(1, 21), 320), [3])
    qc.append(pulse_gate(random_unitary(2, 22), 800), [0, 1])
    qc.sx(2)
    qc.append(pulse_gate(random_unitary(1, 23), 160), [0])
    qc.append(pulse_gate(random_unitary(2, 24), 640), [2, 3])
    qc.measure_all()
    return qc


def _prepared(backend, problem, model, **pipeline_options):
    pipeline = ExecutionPipeline(
        backend=backend, cost=ExpectedCutCost(problem), **pipeline_options
    )
    return pipeline.prepare(model.build_circuit(model.initial_point(3)))


class TestFusedWalkMatchesReference:
    def test_golden_circuit(self, guadalupe):
        assert_fused_matches_reference(
            golden_circuit(), guadalupe, guadalupe.noise_model
        )

    def test_hybrid_qaoa_calibrated_pulses(self, toronto, task1):
        model = HybridGatePulseModel(task1, toronto.device)
        circuit = _prepared(
            toronto, task1, model,
            gate_optimization=True, pulse_efficient=True,
        )
        pulses = [
            inst.operation
            for inst in circuit.instructions
            if isinstance(inst.operation, PulseGate)
        ]
        assert any(getattr(op, "calibrated", False) for op in pulses)
        assert_fused_matches_reference(
            circuit, toronto, toronto.noise_model, toronto.pulse_unitary
        )

    def test_pulse_level_model_with_jitter(self, toronto, task1):
        model = PulseLevelModel(task1, toronto)
        circuit = _prepared(toronto, task1, model)
        assert any(
            isinstance(inst.operation, PulseGate)
            and inst.operation.num_qubits == 2
            and not getattr(inst.operation, "calibrated", False)
            for inst in circuit.instructions
        )
        assert toronto.noise_model.pulse_jitter_entangling > 0
        _, rng = assert_fused_matches_reference(
            circuit, toronto, toronto.noise_model, toronto.pulse_unitary
        )
        # jitter kicks were drawn
        assert (
            rng.bit_generator.state
            != np.random.default_rng(7).bit_generator.state
        )

    def test_gate_level_qaoa(self, toronto, task1):
        model = GateLevelModel(task1)
        circuit = _prepared(toronto, task1, model, gate_optimization=True)
        assert_fused_matches_reference(circuit, toronto, toronto.noise_model)

    def test_delay_and_barrier_layer(self, guadalupe):
        qc = QuantumCircuit(4, 4)
        qc.h(0)
        qc.delay(160, 1)
        qc.sx(2)
        qc.barrier()
        qc.cx(0, 1)
        qc.delay(320, 2)
        qc.x(3)
        qc.measure_all()
        assert_fused_matches_reference(qc, guadalupe, guadalupe.noise_model)

    def test_three_qubit_unitary(self, guadalupe):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        unitary, _ = np.linalg.qr(raw)
        qc = QuantumCircuit(5, 5)
        qc.h(0)
        qc.unitary(unitary, [2, 0, 1])
        qc.cx(3, 4)
        qc.measure_all()
        assert_fused_matches_reference(qc, guadalupe, guadalupe.noise_model)

    def test_qubit_without_t1_inside_two_qubit_gate(self, guadalupe):
        noise = copy.deepcopy(guadalupe.noise_model)
        noise.t1[1] = None
        noise.clear_caches()
        assert noise.relaxation_channel(1, 160) is None
        assert noise.relaxation_channel(0, 160) is not None
        assert_fused_matches_reference(golden_circuit(), guadalupe, noise)

    def test_per_qubit_relaxation(self, guadalupe):
        # the fake backends share one T1/T2 over all qubits; distinct
        # values pin which qubit of a gate each relaxation factor hits
        noise = copy.deepcopy(guadalupe.noise_model)
        qubits = range(noise.num_qubits)
        noise.set_relaxation(
            [40_000.0 + 9_000.0 * q for q in qubits],
            [30_000.0 + 5_000.0 * q for q in qubits],
            noise.dt,
        )
        assert_fused_matches_reference(golden_circuit(), guadalupe, noise)

    def test_without_zz_crosstalk(self, guadalupe):
        noise = copy.deepcopy(guadalupe.noise_model)
        assert noise.zz_crosstalk_ghz > 0
        noise.zz_crosstalk_ghz = 0.0
        assert_fused_matches_reference(golden_circuit(), guadalupe, noise)

    def test_without_noise_model(self, guadalupe):
        assert_fused_matches_reference(golden_circuit(), guadalupe, None)

    def test_jitter_kicks_drawn_in_instruction_order(self, guadalupe):
        qc = jitter_order_circuit()
        plan = _CircuitPlan(qc, guadalupe.target)
        assert plan.layers[0] == [0, 1, 2]
        assert guadalupe.noise_model.pulse_jitter_local > 0
        _, rng = assert_fused_matches_reference(
            qc, guadalupe, guadalupe.noise_model
        )
        assert (
            rng.bit_generator.state
            != np.random.default_rng(7).bit_generator.state
        )

    def test_eight_qubits(self, toronto):
        problem = MaxCutProblem(benchmark_graph(3))
        model = HybridGatePulseModel(problem, toronto.device)
        circuit = _prepared(toronto, problem, model, gate_optimization=True)
        plan, _ = assert_fused_matches_reference(
            circuit, toronto, toronto.noise_model, toronto.pulse_unitary
        )
        assert plan.num_local == 8


def expected_passes(plan, start=0):
    """Per layer from ``start`` on: one superop pass per multi-qubit gate
    plus one per two single-qubit maps (1-qubit gates and idle
    relaxations, an odd one alone); one diagonal pass per timed layer.
    Assumes every active qubit has T1/T2 and the noise model has ZZ
    crosstalk."""
    circuit = plan.circuit
    superops = diagonals = 0
    for layer, duration in list(zip(plan.layers, plan.layer_durations))[
        start:
    ]:
        gates = [
            circuit.instructions[idx]
            for idx in layer
            if not isinstance(circuit.instructions[idx].operation, Delay)
        ]
        singles = sum(len(inst.qubits) == 1 for inst in gates)
        if duration > 0:
            busy = {q for inst in gates for q in inst.qubits}
            singles += len(set(plan.active_list) - busy)
            diagonals += 1
        superops += len(gates) - sum(len(inst.qubits) == 1 for inst in gates)
        superops += math.ceil(singles / 2)
    return superops, diagonals


def repeat_resume_layer(plan):
    """The layer a verbatim repeat of an evaluation resumes at: the last
    one with a per-evaluation gate, up to the first with an uncalibrated
    pulse gate (a jitter kick)."""
    start = 0
    for index, layer in enumerate(plan.layers):
        ops = [
            plan.circuit.instructions[idx].operation
            for idx in layer
            if not isinstance(plan.circuit.instructions[idx].operation, Delay)
        ]
        if any(not _is_static(op) for op in ops):
            start = index
        if any(
            isinstance(op, PulseGate) and not getattr(op, "calibrated", False)
            for op in ops
        ):
            break
    return start


def test_pass_counter(guadalupe, toronto, task1):
    """The ``engine.density_passes`` counter equals
    :func:`expected_passes` exactly, on the golden circuit and on a
    prepared pulse-level QAOA circuit; repeated, the evolve resumes at
    :func:`repeat_resume_layer` and counts only the passes it walks."""
    pulse_level = PulseLevelModel(task1, toronto)
    cases = [
        (golden_circuit(), guadalupe, None),
        (_prepared(toronto, task1, pulse_level), toronto,
         toronto.pulse_unitary),
    ]
    for circuit, backend, provider in cases:
        plan = _CircuitPlan(circuit, backend.target)
        noise = copy.deepcopy(backend.noise_model)
        assert all(
            noise.relaxation_channel(q, 1) is not None
            for q in plan.active_list
        )
        assert noise.zz_crosstalk_ghz > 0
        resume = repeat_resume_layer(plan)
        assert resume > 0
        for start in (0, resume):
            before = metrics_baseline()
            _evolve_exact(
                plan, circuit, "density_matrix", noise,
                np.random.default_rng(0), provider, backend.target,
            )
            counters = metrics_delta(before)["counters"]
            superops, diagonals = expected_passes(plan, start)
            assert diagonals > 0
            assert counters["engine.density_passes{kind=superop}"] == superops
            assert (
                counters["engine.density_passes{kind=diagonal}"] == diagonals
            )
            assert counters.get(
                "engine.density_programs{outcome=resumed}", 0
            ) == (start > 0)


def test_jitter_kick_embedding(toronto):
    """A local kick is placed into its 2-qubit gate's 4×4 directly: ``==``
    the ``kron_all`` form at both positions, and ``_jitter_unitary``
    draws exactly what :func:`sample_jitter_kicks` draws."""
    kick = random_unitary(1, 41)
    for position in (0, 1):
        assert np.array_equal(
            _embed_kick(kick, position, 2),
            kron_all([np.eye(2 >> position), kick, np.eye(1 << position)]),
        )
    noise = toronto.noise_model
    assert noise.pulse_jitter_local > 0 and noise.pulse_jitter_entangling > 0
    rng, reference = np.random.default_rng(5), np.random.default_rng(5)
    expected = None
    for kick, positions in sample_jitter_kicks(
        2, noise.pulse_jitter_local, noise.pulse_jitter_entangling, reference
    ):
        if len(positions) == 1:
            kick = kron_all(
                [np.eye(2 >> positions[0]), kick, np.eye(1 << positions[0])]
            )
        expected = kick if expected is None else kick @ expected
    assert np.array_equal(_jitter_unitary(2, noise, rng), expected)
    assert rng.bit_generator.state == reference.bit_generator.state


_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class TestSampleJitterKicks:
    """What an uncalibrated pulse gate's jitter draws: per qubit a local
    rotation ``exp(-i h·σ)`` with ``h ~ N(0, σ_local/2)^3``, then, on a
    two-qubit gate only, a cross-resonance over-rotation ``rzx(θ)`` with
    ``θ ~ N(0, σ_entangling)``, in that draw order (fixed seeds must
    reproduce the seed path's results)."""

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_no_sigma_draws_nothing(self, width):
        rng, untouched = np.random.default_rng(3), np.random.default_rng(3)
        assert sample_jitter_kicks(width, 0.0, 0.0, rng) == []
        assert rng.bit_generator.state == untouched.bit_generator.state

    def test_local_kicks_are_the_rotations_drawn(self):
        sigma = 0.3
        rng, reference = np.random.default_rng(8), np.random.default_rng(8)
        kicks = sample_jitter_kicks(3, sigma, 0.0, rng)
        assert [positions for _, positions in kicks] == [(0,), (1,), (2,)]
        for kick, _ in kicks:
            h = reference.normal(0.0, sigma / 2, 3)
            generator = sum(c * pauli for c, pauli in zip(h, _PAULIS))
            np.testing.assert_allclose(
                kick, expm(-1j * generator), atol=1e-12
            )
            np.testing.assert_allclose(
                kick.conj().T @ kick, np.eye(2), atol=1e-12
            )
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_entangling_kick_only_on_two_qubit_gates(self, width):
        sigma = 0.2
        rng, reference = np.random.default_rng(9), np.random.default_rng(9)
        kicks = sample_jitter_kicks(width, 0.0, sigma, rng)
        if width != 2:
            assert kicks == []
        else:
            ((kick, positions),) = kicks
            assert positions == (0, 1)
            theta = reference.normal(0.0, sigma)
            np.testing.assert_allclose(
                kick, standard_gate("rzx", [theta]).matrix(), atol=1e-12
            )
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_draw_order_is_local_then_entangling(self):
        rng, reference = np.random.default_rng(10), np.random.default_rng(10)
        kicks = sample_jitter_kicks(2, 0.1, 0.2, rng)
        assert [positions for _, positions in kicks] == [(0,), (1,), (0, 1)]
        reference.normal(0.0, 0.05, 3)
        reference.normal(0.0, 0.05, 3)
        theta = reference.normal(0.0, 0.2)
        np.testing.assert_allclose(
            kicks[2][0], standard_gate("rzx", [theta]).matrix(), atol=1e-12
        )
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_zero_local_draw_is_skipped(self):
        # a vanishing rotation is no kick; the entangling draw still is
        class ZeroDraws:
            def normal(self, loc, scale, size=None):
                return 0.0 if size is None else np.zeros(size)

        kicks = sample_jitter_kicks(2, 0.1, 0.2, ZeroDraws())
        ((kick, positions),) = kicks
        assert positions == (0, 1)
        assert np.array_equal(kick, np.eye(4))


# ---------------------------------------------------------------------------
# the noise model's superoperator memo
# ---------------------------------------------------------------------------

def _fused_rho(circuit, backend, noise_model, unitary_provider=None):
    plan = _CircuitPlan(circuit, backend.target)
    state, _ = _evolve_exact(
        plan, circuit, "density_matrix", noise_model,
        np.random.default_rng(7), unitary_provider, backend.target,
    )
    return state.data


def _relax_per_qubit(noise):
    qubits = range(noise.num_qubits)
    noise.set_relaxation(
        [40_000.0 + 9_000.0 * q for q in qubits],
        [30_000.0 + 5_000.0 * q for q in qubits],
        noise.dt,
    )


def _drop_t1(noise):
    noise.t1[1] = None
    noise.clear_caches()


def _zero_zz(noise):
    noise.zz_crosstalk_ghz = 0.0


def _add_cx_error(noise):
    noise.add_gate_error("cx", depolarizing_channel(0.05, 2))


class TestSuperopMemo:
    """Static gates, idle relaxations, pairs of them and the ZZ
    diagonals are memoized on the noise model.  Keys hold the channel
    objects a superoperator is built from, so a memoized evolve is
    bitwise the cold one, and a mutated noise model never meets a stale
    entry."""

    @pytest.mark.parametrize("family", ["gate", "pulse"])
    def test_warm_cold_and_uncached_are_equal(self, toronto, task1, family):
        if family == "gate":
            model = GateLevelModel(task1)
            circuit = _prepared(toronto, task1, model, gate_optimization=True)
        else:
            model = PulseLevelModel(task1, toronto)
            circuit = _prepared(toronto, task1, model)
        noise = copy.deepcopy(toronto.noise_model)
        noise.clear_caches()
        provider = toronto.pulse_unitary
        cold = _fused_rho(circuit, toronto, noise, provider)
        assert len(noise.superop_cache) > 0
        hits = noise.superop_cache.hits
        warm = _fused_rho(circuit, toronto, noise, provider)
        assert noise.superop_cache.hits > hits
        with caching_disabled():
            uncached = _fused_rho(circuit, toronto, noise, provider)
        assert np.array_equal(warm, cold)
        assert np.array_equal(uncached, cold)

    @pytest.mark.parametrize(
        "mutate", [_add_cx_error, _relax_per_qubit, _zero_zz, _drop_t1]
    )
    def test_mutated_noise_model_is_seen(self, guadalupe, mutate):
        noise = copy.deepcopy(guadalupe.noise_model)
        circuit = golden_circuit()
        assert_fused_matches_reference(circuit, guadalupe, noise)
        before = _fused_rho(circuit, guadalupe, noise)
        mutate(noise)
        assert_fused_matches_reference(circuit, guadalupe, noise)
        assert not np.array_equal(_fused_rho(circuit, guadalupe, noise), before)

    def test_clear_caches_empties_memo(self, guadalupe):
        noise = copy.deepcopy(guadalupe.noise_model)
        _fused_rho(golden_circuit(), guadalupe, noise)
        assert len(noise.superop_cache) > 0
        noise.clear_caches()
        assert len(noise.superop_cache) == 0


# ---------------------------------------------------------------------------
# the compiled walk against the per-layer walk
# ---------------------------------------------------------------------------

def random_structure_circuit(num_qubits, structure_seed, angle_seed, depth=5):
    """A random circuit whose structure — gate kinds, qubits, pulse
    durations and flags, delays, barriers — depends on ``structure_seed``
    alone and whose angles and pulse unitaries on ``angle_seed``, so two
    angle seeds are two evaluations of one structure."""
    shape = np.random.default_rng(structure_seed)
    angles = np.random.default_rng(angle_seed)
    qc = QuantumCircuit(num_qubits, num_qubits)
    for _ in range(depth):
        free = list(shape.permutation(num_qubits))
        while free:
            kind = int(shape.integers(9))
            if kind >= 6 and len(free) >= 2:
                qubits = [int(free.pop()), int(free.pop())]
            else:
                qubits = [int(free.pop())]
                kind = min(kind, 5)
            width = len(qubits)
            if kind == 0:
                qc.sx(qubits[0])
            elif kind == 1:
                qc.rz(float(angles.uniform(0, 2 * math.pi)), qubits[0])
            elif kind == 2:
                qc.delay(int(shape.choice([160, 320])), qubits[0])
            elif kind == 6:
                qc.cx(*qubits)
            elif kind == 7:
                qc.unitary(random_unitary(2, int(angles.integers(1 << 30))),
                           qubits)
            else:
                qc.append(
                    pulse_gate(
                        random_unitary(width, int(angles.integers(1 << 30))),
                        int(shape.choice([160, 320, 800])),
                        calibrated=bool(shape.integers(2)),
                    ),
                    qubits,
                )
        if shape.integers(3) == 0:
            qc.barrier()
    qc.measure_all()
    return qc


def _program_outcomes(before):
    counters = metrics_delta(before)["counters"]
    return (
        counters.get("engine.density_programs{outcome=compiled}", 0),
        counters.get("engine.density_programs{outcome=reused}", 0),
    )


class TestCompiledWalk:
    """The engine compiles a circuit structure's walk once and replays
    it per evaluation over a ρ left in each pass's axis order.  It must
    equal the per-layer walk bit for bit up to six qubits."""

    def test_golden_circuit(self, guadalupe):
        assert_compiled_equals_layer_walk(
            golden_circuit(), guadalupe, guadalupe.noise_model
        )

    @pytest.mark.parametrize("family", ["gate", "hybrid", "pulse"])
    def test_paper_models(self, toronto, task1, family):
        if family == "gate":
            circuit = _prepared(
                toronto, task1, GateLevelModel(task1), gate_optimization=True
            )
        elif family == "hybrid":
            circuit = _prepared(
                toronto, task1, HybridGatePulseModel(task1, toronto.device),
                gate_optimization=True, pulse_efficient=True,
            )
        else:
            circuit = _prepared(
                toronto, task1, PulseLevelModel(task1, toronto)
            )
        assert_compiled_equals_layer_walk(
            circuit, toronto, toronto.noise_model, toronto.pulse_unitary
        )

    def test_delay_barrier_and_three_qubit_unitary(self, guadalupe):
        qc = QuantumCircuit(5, 5)
        qc.h(0)
        qc.delay(160, 1)
        qc.unitary(random_unitary(3, 5), [2, 0, 4])
        qc.barrier()
        qc.cx(0, 1)
        qc.delay(320, 2)
        qc.x(3)
        qc.measure_all()
        assert_compiled_equals_layer_walk(qc, guadalupe, guadalupe.noise_model)

    @pytest.mark.parametrize(
        "mutate", [_relax_per_qubit, _zero_zz, _drop_t1, _add_cx_error]
    )
    def test_noise_variants(self, guadalupe, mutate):
        noise = copy.deepcopy(guadalupe.noise_model)
        mutate(noise)
        assert_compiled_equals_layer_walk(golden_circuit(), guadalupe, noise)

    def test_without_noise_model(self, guadalupe):
        assert_compiled_equals_layer_walk(golden_circuit(), guadalupe, None)

    def test_jitter_kicks_drawn_in_instruction_order(self, guadalupe):
        assert_compiled_equals_layer_walk(
            jitter_order_circuit(), guadalupe, guadalupe.noise_model
        )

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6, 7, 8, 9])
    def test_random_structures_replayed(self, guadalupe, num_qubits):
        # the first evaluation of each structure compiles, the second
        # replays the program with other angles and pulse unitaries
        noise = copy.deepcopy(guadalupe.noise_model)
        structures = 3 if num_qubits <= 6 else 1
        for structure in range(structures):
            seed = 100 * num_qubits + structure
            before = metrics_baseline()
            for angle_seed in (1, 2):
                assert_compiled_equals_layer_walk(
                    random_structure_circuit(num_qubits, seed, angle_seed),
                    guadalupe, noise, seed=angle_seed,
                )
            assert _program_outcomes(before) == (1, 1)

    def test_eight_qubit_hybrid(self, toronto):
        problem = MaxCutProblem(benchmark_graph(3))
        model = HybridGatePulseModel(problem, toronto.device)
        circuit = _prepared(toronto, problem, model, gate_optimization=True)
        assert _CircuitPlan(circuit, toronto.target).num_local == 8
        assert_compiled_equals_layer_walk(
            circuit, toronto, toronto.noise_model, toronto.pulse_unitary
        )

    def test_program_counter_and_memo(self, guadalupe):
        noise = copy.deepcopy(guadalupe.noise_model)
        first = random_structure_circuit(4, 7, 1)
        second = random_structure_circuit(4, 7, 2)
        before = metrics_baseline()
        _fused_rho(first, guadalupe, noise)
        assert _program_outcomes(before) == (1, 0)
        _fused_rho(second, guadalupe, noise)
        assert _program_outcomes(before) == (1, 1)
        with caching_disabled():
            _fused_rho(second, guadalupe, noise)
        assert _program_outcomes(before) == (2, 1)
        noise.clear_caches()
        _fused_rho(second, guadalupe, noise)
        assert _program_outcomes(before) == (3, 1)

    def test_pickled_noise_model_ships_an_empty_memo(self, guadalupe):
        # pool workers get the backend pickled; the programs stay home
        noise = copy.deepcopy(guadalupe.noise_model)
        circuit = random_structure_circuit(4, 9, 1)
        warm = _fused_rho(circuit, guadalupe, noise)
        assert len(noise.superop_cache) > 0
        clone = pickle.loads(pickle.dumps(noise))
        assert len(clone.superop_cache) == 0
        assert np.array_equal(_fused_rho(circuit, guadalupe, clone), warm)

    def test_unitary_of_the_wrong_width_is_refused(self, guadalupe):
        qc = QuantumCircuit(2, 2)
        qc.append(pulse_gate(random_unitary(1, 3), 160), [0])
        qc.measure_all()
        gate = qc.instructions[0].operation
        noise = copy.deepcopy(guadalupe.noise_model)
        _fused_rho(qc, guadalupe, noise)
        gate.unitary = random_unitary(2, 4)  # the program is reused
        with pytest.raises(SimulatorError):
            _fused_rho(qc, guadalupe, noise)


# ---------------------------------------------------------------------------
# replays resumed from a recent replay's ρ
# ---------------------------------------------------------------------------

#: the parametric layers of :func:`resume_circuit`
FIRST, MIDDLE, LAST = 2, 4, 6


def resume_circuit(angles=(0.3, 0.5, 0.7, 0.9), jitter=False, pulse=None):
    """Four qubits in seven barrier-separated timed layers: an H preamble
    and a CX layer, then parametric layers ``FIRST`` (``angles[0]``,
    ``angles[1]``), ``MIDDLE`` (``angles[2]`` and a pulse gate carrying
    ``pulse``, uncalibrated when ``jitter``) and ``LAST``
    (``angles[3]``), with static layers between them."""
    qc = QuantumCircuit(4, 4)
    for q in range(4):
        qc.h(q)
    qc.barrier()
    qc.cx(0, 1)
    qc.cx(2, 3)
    qc.barrier()
    qc.rx(angles[0], 0)
    qc.rx(angles[1], 2)
    qc.barrier()
    for q in range(4):
        qc.sx(q)
    qc.barrier()
    qc.rx(angles[2], 1)
    unitary = random_unitary(1, 51) if pulse is None else pulse
    qc.append(pulse_gate(unitary, 160, calibrated=not jitter), [3])
    qc.barrier()
    qc.cx(1, 2)
    qc.barrier()
    qc.rx(angles[3], 3)
    qc.measure_all()
    return qc


def spliced_circuit(head, tail, cut):
    """``head``'s first ``cut`` instructions, then ``tail``'s from there:
    two evaluations of one structure that share a prefix."""
    qc = QuantumCircuit(head.num_qubits, head.num_clbits)
    for inst in head.instructions[:cut] + tail.instructions[cut:]:
        qc.append(inst.operation, inst.qubits, inst.clbits)
    return qc


def held_records(noise):
    """The noise model's replay records, ``(program, records)``, or
    ``None`` when its superoperator memo holds no records slot."""
    if _REPLAY_RECORDS_KEY not in noise.superop_cache:
        return None
    return noise.superop_cache.get_or_compute(_REPLAY_RECORDS_KEY, list)[0]


def layered_circuit(num_qubits, layers, angle_seed):
    """An H preamble, then ``layers`` rounds of an ``rz`` on every qubit
    and a CX layer, barrier-separated: one resume point per round."""
    angles = np.random.default_rng(angle_seed)
    qc = QuantumCircuit(num_qubits, num_qubits)
    for q in range(num_qubits):
        qc.h(q)
    for _ in range(layers):
        qc.barrier()
        for q in range(num_qubits):
            qc.rz(float(angles.uniform(0, 2 * math.pi)), q)
        qc.barrier()
        for q in range(0, num_qubits - 1, 2):
            qc.cx(q, q + 1)
    qc.measure_all()
    return qc


def assert_walked_from(circuit, backend, noise, start, seed=7, provider=None):
    """One evolve ``==`` :func:`layer_walk_evolve` with equal RNG state
    (:func:`assert_compiled_equals_layer_walk`) that walked from layer
    ``start``: the pass counters equal :func:`expected_passes` from
    there, and it counts as resumed exactly when ``start > 0``."""
    before = metrics_baseline()
    rho = assert_compiled_equals_layer_walk(
        circuit, backend, noise, provider, seed
    )
    counters = metrics_delta(before)["counters"]
    superops, diagonals = expected_passes(
        _CircuitPlan(circuit, backend.target), start
    )
    assert counters["engine.density_passes{kind=superop}"] == superops
    assert counters["engine.density_passes{kind=diagonal}"] == diagonals
    assert counters.get(
        "engine.density_programs{outcome=resumed}", 0
    ) == (start > 0)
    return rho


class TestResumedReplay:
    """A replay starts at the deepest resume point whose earlier inputs
    equal one of the last two replays' of its program, from the ρ that
    replay held there.  ρ and the RNG state must equal a walk from layer
    0 (``==`` up to six qubits)."""

    @pytest.fixture
    def noise(self, guadalupe):
        noise = copy.deepcopy(guadalupe.noise_model)
        assert held_records(noise) is None
        return noise

    def test_layers(self, guadalupe):
        plan = _CircuitPlan(resume_circuit(), guadalupe.target)
        assert len(plan.layers) == LAST + 1
        assert all(duration > 0 for duration in plan.layer_durations)
        assert repeat_resume_layer(plan) == LAST
        jittered = _CircuitPlan(resume_circuit(jitter=True), guadalupe.target)
        assert repeat_resume_layer(jittered) == MIDDLE

    def test_same_evaluation_twice(self, guadalupe, noise):
        assert_walked_from(resume_circuit(), guadalupe, noise, 0)
        assert_walked_from(resume_circuit(), guadalupe, noise, LAST, seed=8)

    def test_only_the_last_layer_changed(self, guadalupe, noise):
        assert_walked_from(resume_circuit(), guadalupe, noise, 0)
        assert_walked_from(
            resume_circuit((0.3, 0.5, 0.7, 1.9)), guadalupe, noise, LAST
        )

    def test_only_the_first_layer_changed(self, guadalupe, noise):
        # the H preamble and CX layer are still skipped
        assert_walked_from(resume_circuit(), guadalupe, noise, 0)
        assert_walked_from(
            resume_circuit((1.3, 0.5, 0.7, 0.9)), guadalupe, noise, FIRST
        )

    def test_simplex_pattern(self, guadalupe, noise):
        # A, then B moves the first layer, then A' moves the middle one:
        # A' shares A's prefix, two replays back
        assert_walked_from(resume_circuit(), guadalupe, noise, 0)
        assert_walked_from(
            resume_circuit((1.3, 0.5, 0.7, 0.9)), guadalupe, noise, FIRST
        )
        assert_walked_from(
            resume_circuit((0.3, 0.5, 1.7, 0.9)), guadalupe, noise, MIDDLE
        )
        # three replays back is forgotten
        assert_walked_from(
            resume_circuit((0.3, 0.5, 0.7, 1.9)), guadalupe, noise, MIDDLE
        )

    def test_two_programs_alternating(self, guadalupe, noise):
        other = random_structure_circuit(4, 11, 1)
        for step in range(2):
            assert_walked_from(resume_circuit(), guadalupe, noise, 0, step)
            assert_walked_from(other, guadalupe, noise, 0, step)

    def test_not_past_a_jitter_kick(self, guadalupe, noise):
        assert noise.pulse_jitter_local > 0
        assert_walked_from(resume_circuit(jitter=True), guadalupe, noise, 0)
        assert_walked_from(
            resume_circuit((0.3, 0.5, 0.7, 1.9), jitter=True),
            guadalupe, noise, MIDDLE, seed=8,
        )

    def test_clear_caches_between_replays(self, guadalupe, noise):
        assert_walked_from(resume_circuit(), guadalupe, noise, 0)
        noise.clear_caches()
        assert held_records(noise) is None
        assert_walked_from(resume_circuit(), guadalupe, noise, 0)

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda n: pickle.loads(pickle.dumps(n))],
        ids=["deepcopy", "pickle"],
    )
    def test_copied_noise_model_drops_records(self, guadalupe, noise, clone):
        assert_walked_from(resume_circuit(), guadalupe, noise, 0)
        assert held_records(noise) is not None
        copied = clone(noise)
        assert held_records(copied) is None
        assert_walked_from(resume_circuit(), guadalupe, copied, 0)

    def test_caching_disabled_does_not_resume(self, guadalupe, noise):
        assert_walked_from(resume_circuit(), guadalupe, noise, 0)
        held = held_records(noise)
        with caching_disabled():
            assert_walked_from(resume_circuit(), guadalupe, noise, 0)
        assert held_records(noise) is held
        assert_walked_from(resume_circuit(), guadalupe, noise, LAST)

    def test_caching_disabled_keeps_no_states(self, guadalupe, noise):
        # with records, the ρ before each of the ten resume points stays
        # alive; under caching_disabled() the walk holds a few states at
        # most, like a walk with nothing to keep
        circuit = layered_circuit(6, 10, 1)
        program = _compile_density(
            _CircuitPlan(circuit, guadalupe.target), circuit, noise,
            guadalupe.target,
        )
        resume_points = len(program.resume_points)
        assert resume_points == 10
        state_bytes = 16 << 12

        def peak_states(angle_seed):
            tracemalloc.start()
            try:
                program.replay(
                    layered_circuit(6, 10, angle_seed), noise,
                    np.random.default_rng(0), None,
                )
                return tracemalloc.get_traced_memory()[1] / state_bytes
            finally:
                tracemalloc.stop()

        assert peak_states(2) > resume_points
        with caching_disabled():
            assert peak_states(3) < resume_points // 2 + 3

    def test_records_are_bounded(self, guadalupe, noise):
        # ten resume points at ten qubits would keep 2 · 10 · 16 MiB: the
        # program keeps none, and the evolve leaves no records behind
        circuit = layered_circuit(10, 10, 1)
        plan = _CircuitPlan(circuit, guadalupe.target)
        assert plan.num_local == 10
        program = _compile_density(plan, circuit, noise, guadalupe.target)
        assert program.resume_points == ()
        assert all(layer[4] for layer in program.layers[1::2])
        for seed in (1, 2):
            _evolve_exact(
                plan, layered_circuit(10, 10, seed), "density_matrix",
                noise, np.random.default_rng(0), None, guadalupe.target,
            )
        assert held_records(noise) is None

    def test_equal_bytes_of_another_shape_do_not_match(self, guadalupe, noise):
        # the middle layer's pulse unitary, flattened: a replay matching
        # bytes alone would resume at LAST and never check its shape
        pulse = random_unitary(1, 51)
        assert_walked_from(resume_circuit(pulse=pulse), guadalupe, noise, 0)
        flat = resume_circuit(pulse=pulse)
        (gate,) = [
            inst.operation
            for inst in flat.instructions
            if isinstance(inst.operation, PulseGate)
        ]
        gate.unitary = pulse.reshape(1, 4)
        with pytest.raises(SimulatorError):
            _fused_rho(flat, guadalupe, noise)

    def test_hybrid_simplex(self, toronto, task1):
        # COBYLA's first steps: x0, then one coordinate moved at a time
        noise = copy.deepcopy(toronto.noise_model)
        model = HybridGatePulseModel(task1, toronto.device)
        pipeline = ExecutionPipeline(
            backend=toronto, cost=ExpectedCutCost(task1),
            gate_optimization=True,
        )
        x0 = np.asarray(model.initial_point(3), dtype=float)
        points = [x0, *(x0 + 0.25 * np.eye(len(x0)))]
        before = metrics_baseline()
        for step, point in enumerate(points):
            assert_compiled_equals_layer_walk(
                pipeline.prepare(model.build_circuit(point)), toronto, noise,
                toronto.pulse_unitary, seed=step,
            )
        counters = metrics_delta(before)["counters"]
        assert counters["engine.density_programs{outcome=compiled}"] == 1
        assert counters["engine.density_programs{outcome=resumed}"] == len(x0)

    @pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6, 7, 8, 9])
    def test_random_structures(self, guadalupe, noise, num_qubits):
        # a compile, all angles changed, a repeat of two replays back, a
        # shared first half, the same again
        for structure in range(3 if num_qubits <= 6 else 1):
            seed = 300 * num_qubits + structure
            first = random_structure_circuit(num_qubits, seed, 1)
            second = random_structure_circuit(num_qubits, seed, 2)
            spliced = spliced_circuit(
                first, second, len(first.instructions) // 2
            )
            for step, circuit in enumerate(
                [first, second, first, spliced, spliced]
            ):
                assert_compiled_equals_layer_walk(
                    circuit, guadalupe, noise, seed=step
                )


# ---------------------------------------------------------------------------
# the ZZ step's 4ⁿ products, memoized within a byte bound
# ---------------------------------------------------------------------------

def zz_steps(program):
    """Each ZZ layer's ``(shape, row, column)`` of a compiled walk;
    ``column`` is ``None`` where ``row`` is the layer's 4ⁿ product."""
    return [layer[3] for layer in program.layers if layer[3] is not None]


def held_products(noise):
    """The 4ⁿ ZZ products in the noise model's superoperator memo, the
    entries under ``(angle, pairs, width, axis order)`` keys."""
    return [
        value for key, value in noise.superop_cache._data.items()
        if len(key) == 4 and isinstance(key[0], float)
    ]


def compiled_program(circuit, backend, noise):
    plan = _CircuitPlan(circuit, backend.target)
    return _compile_density(plan, circuit, noise, backend.target)


class TestZZProducts:
    """Within ``_ZZ_PRODUCT_BYTES`` a program multiplies ρ by each ZZ
    layer's product, built once and memoized; ρ and the RNG state still
    equal the per-layer walk, which forms ``outer(d, d*)`` every time."""

    def test_six_qubit_products_sit_in_the_memo(self, toronto, task1):
        # COBYLA's first steps on the hybrid model: a compile, then
        # replays that resume past the layers one step leaves alone
        noise = copy.deepcopy(toronto.noise_model)
        model = HybridGatePulseModel(task1, toronto.device)
        pipeline = ExecutionPipeline(
            backend=toronto, cost=ExpectedCutCost(task1),
            gate_optimization=True,
        )
        x0 = np.asarray(model.initial_point(3), dtype=float)
        points = [x0, *(x0 + 0.25 * np.eye(len(x0))), x0]
        before = metrics_baseline()
        for step, point in enumerate(points):
            assert_compiled_equals_layer_walk(
                pipeline.prepare(model.build_circuit(point)), toronto, noise,
                toronto.pulse_unitary, seed=step,
            )
        counters = metrics_delta(before)["counters"]
        assert counters["engine.density_programs{outcome=compiled}"] == 1
        assert counters["engine.density_programs{outcome=resumed}"] == len(
            points
        ) - 1
        circuit = pipeline.prepare(model.build_circuit(x0))
        program = compiled_program(circuit, toronto, noise)
        steps = zz_steps(program)
        assert steps and all(column is None for _s, _r, column in steps)
        products = {id(row): row for _shape, row, _column in steps}
        held = {id(product) for product in held_products(noise)}
        assert set(products) <= held
        assert all(product.nbytes == 16 << 12 for product in products.values())
        assert len(products) * (16 << 12) <= _ZZ_PRODUCT_BYTES

    @pytest.mark.parametrize("num_qubits", [7, 8, 9])
    def test_past_the_bound_keeps_the_factors(self, guadalupe, num_qubits):
        noise = copy.deepcopy(guadalupe.noise_model)
        seed = 700 + num_qubits
        circuit = random_structure_circuit(num_qubits, seed, 1, depth=12)
        steps = zz_steps(compiled_program(circuit, guadalupe, noise))
        distinct = {
            (shape, row.tobytes(), column.tobytes())
            for shape, row, column in steps
        }
        assert len(distinct) * (16 << 2 * num_qubits) > _ZZ_PRODUCT_BYTES
        for angle_seed in (1, 2):
            assert_compiled_equals_layer_walk(
                random_structure_circuit(num_qubits, seed, angle_seed, 12),
                guadalupe, noise, seed=angle_seed,
            )
        assert held_products(noise) == []

    def test_products_within_the_bound_at_seven_qubits(self, guadalupe):
        # the bound counts bytes, not qubits: 8 products of 256 KiB fit
        noise = copy.deepcopy(guadalupe.noise_model)
        circuit = random_structure_circuit(7, 707, 1, depth=8)
        steps = zz_steps(compiled_program(circuit, guadalupe, noise))
        assert len(steps) == 8
        assert all(column is None for _s, _r, column in steps)
        assert len(held_products(noise)) == 8
        assert_compiled_equals_layer_walk(circuit, guadalupe, noise)

    def test_nothing_outlives_the_memo(self, toronto, task1):
        noise = copy.deepcopy(toronto.noise_model)
        circuit = _prepared(
            toronto, task1, GateLevelModel(task1), gate_optimization=True
        )
        warm = _fused_rho(circuit, toronto, noise)
        assert held_products(noise)
        for clone in (copy.deepcopy(noise), pickle.loads(pickle.dumps(noise))):
            assert held_products(clone) == []
            assert np.array_equal(_fused_rho(circuit, toronto, clone), warm)
        noise.clear_caches()
        assert held_products(noise) == []
        with caching_disabled():
            assert np.array_equal(_fused_rho(circuit, toronto, noise), warm)
        assert held_products(noise) == []


def _invalidation_circuit(pulse_duration=320, calibrated=False):
    """Static, parametric and pulse gates in timed layers.  Layer 1's
    1-qubit pulse (``pulse_duration``) sits beside a CX, so its duration
    changes its channel but not the layer's; layer 2's 2-qubit pulse
    carries ``calibrated``."""
    qc = QuantumCircuit(4, 4)
    qc.h(0)
    qc.rz(0.7, 1)
    qc.append(pulse_gate(random_unitary(1, 31), 320), [2])
    qc.sx(3)
    qc.cx(0, 1)
    qc.append(pulse_gate(random_unitary(1, 32), pulse_duration), [3])
    qc.append(
        pulse_gate(random_unitary(2, 33), 800, calibrated=calibrated), [1, 2]
    )
    qc.sx(3)
    qc.measure_all()
    return qc


def _edit_t1(case):
    case["noise"].t1[1] = 0.8 * case["noise"].t1[1]
    case["noise"].clear_caches()


def _triple_zz(case):
    case["noise"].zz_crosstalk_ghz *= 3


def _pulse_error_1q(case):
    case["noise"].pulse_error_per_dt_1q *= 4


def _pulse_error_2q(case):
    case["noise"].pulse_error_per_dt_2q *= 4


def _jitter_sigma(case):
    case["noise"].pulse_jitter_local *= 3


def _longer_cx(case):
    case["target"].set_duration("cx", 2400)


def _longer_pulse(case):
    case["circuit"] = _invalidation_circuit(pulse_duration=480)


def _calibrated_pulse(case):
    case["circuit"] = _invalidation_circuit(calibrated=True)


class TestProgramInvalidation:
    """A program is fetched only for a walk that reads the same values:
    after a compiled evolve, every edit below is seen — ρ equals a cold
    compile's and moves."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda case: _add_cx_error(case["noise"]),
            lambda case: _relax_per_qubit(case["noise"]),
            _edit_t1,
            _triple_zz,
            _pulse_error_1q,
            _pulse_error_2q,
            _jitter_sigma,
            _longer_cx,
            _longer_pulse,
            _calibrated_pulse,
        ],
        ids=[
            "add_gate_error", "set_relaxation", "t1_and_clear_caches",
            "zz_rate", "pulse_error_1q", "pulse_error_2q", "jitter_sigma",
            "target_set_duration", "pulse_duration", "calibrated_flag",
        ],
    )
    def test_edit_is_seen(self, guadalupe, mutate):
        case = {
            "circuit": _invalidation_circuit(),
            "target": copy.deepcopy(guadalupe.target),
            "noise": copy.deepcopy(guadalupe.noise_model),
        }

        def evolve():
            circuit, target = case["circuit"], case["target"]
            state, _ = _evolve_exact(
                _CircuitPlan(circuit, target), circuit, "density_matrix",
                case["noise"], np.random.default_rng(3), None, target,
            )
            return state.data

        compiled = evolve()
        before = metrics_baseline()
        assert np.array_equal(evolve(), compiled)
        assert _program_outcomes(before) == (0, 1)
        mutate(case)
        warm = evolve()
        with caching_disabled():
            cold = evolve()
        assert np.array_equal(warm, cold)
        assert not np.array_equal(warm, compiled)


class TestPlanMemo:
    """A circuit plan's structure is built once per circuit structure and
    kept on the target; ``plan.circuit`` stays the evaluation's own."""

    def test_shared_by_evaluations_of_one_structure(self, guadalupe):
        target = copy.deepcopy(guadalupe.target)
        first = _CircuitPlan(resume_circuit(), target)
        second_circuit = resume_circuit((1.3, 0.5, 0.7, 0.9))
        second = _CircuitPlan(second_circuit, target)
        assert second.circuit is second_circuit
        assert second.layers is first.layers
        assert second.key == first.key

    def test_durations_are_in_the_key(self, guadalupe):
        target = copy.deepcopy(guadalupe.target)
        plans = []
        for delay in (160, 320):
            qc = QuantumCircuit(2, 2)
            qc.delay(delay, 0)
            qc.sx(1)
            qc.measure_all()
            plans.append(_CircuitPlan(qc, target))
        assert [plan.layer_durations for plan in plans] == [[160], [320]]
        short, long = _invalidation_circuit(), _invalidation_circuit(480)
        assert (
            _CircuitPlan(short, target).key != _CircuitPlan(long, target).key
        )

    def test_set_duration_empties_it(self, guadalupe):
        target = copy.deepcopy(guadalupe.target)
        target.plan_cache.clear()
        before = _CircuitPlan(golden_circuit(), target).layer_durations
        assert len(target.plan_cache) == 1
        target.set_duration("cx", 2400)
        assert len(target.plan_cache) == 0
        after = _CircuitPlan(golden_circuit(), target).layer_durations
        assert 2400 in after and 2400 not in before


# ---------------------------------------------------------------------------
# DensityMatrix primitives
# ---------------------------------------------------------------------------

def random_density(num_qubits, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho)


def random_unitary(num_qubits, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << num_qubits
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unitary, _ = np.linalg.qr(raw)
    return unitary


class TestPrimitives:
    @pytest.mark.parametrize("qubits", [[4], [1, 5], [3, 0, 2]])
    def test_unitary_superop_matches_dense(self, qubits):
        rho = random_density(6, 0)
        unitary = random_unitary(len(qubits), len(qubits))
        state = DensityMatrix(rho)
        state.apply_superop(unitary_superop(unitary), qubits)
        full = embed_matrix(unitary, qubits, 6)
        expected = full @ rho @ full.conj().T
        assert np.max(np.abs(state.data - expected)) <= 1e-12

    def test_apply_unitary_is_one_superop_pass(self):
        rho = random_density(5, 1)
        unitary = random_unitary(2, 2)
        via_unitary = DensityMatrix(rho).apply_unitary(unitary, [3, 1])
        via_superop = DensityMatrix(rho).apply_superop(
            unitary_superop(unitary), [3, 1]
        )
        assert np.array_equal(via_unitary.data, via_superop.data)

    def test_zz_diagonal_matches_sequential_rzz(self):
        pairs = ((0, 1), (1, 2), (2, 3), (1, 4))
        angle = 0.0123
        rho = random_density(5, 3)
        fused = DensityMatrix(rho).apply_diagonal_unitary(
            _zz_diagonal(angle, pairs, 5)
        )
        sequential = DensityMatrix(rho)
        for pair in pairs:
            sequential.apply_unitary(_zz_unitary(angle), list(pair))
        assert np.max(np.abs(fused.data - sequential.data)) <= 1e-12

    def test_two_qubit_relaxation_matches_expand(self):
        low = thermal_relaxation_channel(90_000.0, 70_000.0, 71.1)
        high = thermal_relaxation_channel(60_000.0, 20_000.0, 71.1)
        combined = expand_superop(channel_superop(low), channel_superop(high))
        expected = sum(
            np.kron(op, op.conj()) for op in low.expand(high).kraus_ops
        )
        assert np.max(np.abs(combined - expected)) <= 1e-12

    def test_channel_superop_is_memoized(self):
        channel = thermal_relaxation_channel(90_000.0, 70_000.0, 35.5)
        assert channel_superop(channel) is channel_superop(channel)

    @pytest.mark.parametrize(
        "superop, qubits",
        [
            (np.eye(4), [1, 1]),  # repeated qubit
            (np.eye(4), [3]),  # out of range
            (np.eye(4), [-1]),  # negative
            (np.eye(16), [0]),  # 2-qubit map on 1 qubit
            (np.eye(4), [0, 1]),  # 1-qubit map on 2 qubits
            (np.eye(8), [0]),  # not a power of four
        ],
    )
    def test_apply_superop_rejects(self, superop, qubits):
        with pytest.raises(SimulatorError):
            DensityMatrix(3).apply_superop(superop, qubits)

    def test_apply_unitary_rejects_repeated_qubit(self):
        cx = np.eye(4)[[0, 3, 2, 1]]
        with pytest.raises(SimulatorError):
            DensityMatrix(3).apply_unitary(cx, [1, 1])

    def test_apply_channel_rejects_width_mismatch(self):
        channel = thermal_relaxation_channel(90_000.0, 70_000.0, 35.5)
        with pytest.raises(SimulatorError):
            DensityMatrix(3).apply_channel(channel, [0, 1])

    @pytest.mark.parametrize("length", [4, 7, 9, 64])
    def test_apply_diagonal_unitary_rejects_length(self, length):
        with pytest.raises(SimulatorError):
            DensityMatrix(3).apply_diagonal_unitary(np.ones(length))
