"""The fused density-matrix walk against the op-by-op reference walk.

The engine's density back-end composes everything that happens to a
gate's qubits within one layer — unitary, channels, jitter kick and the
layer's relaxation — into one superoperator, applies a layer's
single-qubit maps two to a pass, and applies its ZZ crosstalk as one
elementwise pass.  :func:`reference_evolve` keeps
the unfused walk: two-sided unitaries, one pass per channel, per-kick
jitter, per-qubit relaxation and per-pair ``rzz``.  Fusion only
reorders operations on disjoint qubits, so the two walks agree up to
float rounding: the gate is a tolerance, not ``==``.
"""

import copy
import math

import numpy as np
import pytest

from repro.backends import FakeGuadalupe, FakeToronto
from repro.backends.engine import (
    _CircuitPlan,
    _evolve_exact,
    _operation_duration,
    _resolve_unitary,
    _RunContext,
    _zz_diagonal,
)
from repro.circuits import QuantumCircuit
from repro.circuits.gates import Delay, PulseGate
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
from repro.simulators.trajectory import sample_jitter_kicks
from repro.telemetry.metrics import metrics_baseline, metrics_delta
from repro.utils.cache import caching_disabled
from repro.utils.kernels import apply_matrix_flat, apply_plan
from repro.utils.linalg import embed_matrix
from repro.vqa import ExpectedCutCost

#: max|Δρ| allowed between the fused and the reference walk; the
#: measured gap on the paper workloads is about 1e-15
TOLERANCE = 1e-12


# ---------------------------------------------------------------------------
# the unfused reference walk
# ---------------------------------------------------------------------------

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

    def test_eight_qubits(self, toronto):
        problem = MaxCutProblem(benchmark_graph(3))
        model = HybridGatePulseModel(problem, toronto.device)
        circuit = _prepared(toronto, problem, model, gate_optimization=True)
        plan, _ = assert_fused_matches_reference(
            circuit, toronto, toronto.noise_model, toronto.pulse_unitary
        )
        assert plan.num_local == 8


def expected_passes(plan):
    """Per layer: one superop pass per multi-qubit gate plus one per two
    single-qubit maps (1-qubit gates and idle relaxations, an odd one
    alone); one diagonal pass per timed layer.  Assumes every active
    qubit has T1/T2 and the noise model has ZZ crosstalk."""
    circuit = plan.circuit
    superops = diagonals = 0
    for layer, duration in zip(plan.layers, plan.layer_durations):
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


def test_pass_counter(guadalupe, toronto, task1):
    """The ``engine.density_passes`` counter equals
    :func:`expected_passes` exactly, on the golden circuit and on a
    prepared pulse-level QAOA circuit."""
    pulse_level = PulseLevelModel(task1, toronto)
    cases = [
        (golden_circuit(), guadalupe, None),
        (_prepared(toronto, task1, pulse_level), toronto,
         toronto.pulse_unitary),
    ]
    for circuit, backend, provider in cases:
        plan = _CircuitPlan(circuit, backend.target)
        noise = backend.noise_model
        assert all(
            noise.relaxation_channel(q, 1) is not None
            for q in plan.active_list
        )
        assert noise.zz_crosstalk_ghz > 0
        before = metrics_baseline()
        _evolve_exact(
            plan, circuit, "density_matrix", noise,
            np.random.default_rng(0), provider, backend.target,
        )
        counters = metrics_delta(before)["counters"]
        superops, diagonals = expected_passes(plan)
        assert diagonals > 0
        assert counters["engine.density_passes{kind=superop}"] == superops
        assert counters["engine.density_passes{kind=diagonal}"] == diagonals


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

    def test_zz_diagonal_matches_sequential_rzz(self, guadalupe):
        context = _RunContext(guadalupe.target)
        pairs = ((0, 1), (1, 2), (2, 3), (1, 4))
        angle = 0.0123
        rho = random_density(5, 3)
        fused = DensityMatrix(rho).apply_diagonal_unitary(
            _zz_diagonal(angle, pairs, 5)
        )
        sequential = DensityMatrix(rho)
        for pair in pairs:
            sequential.apply_unitary(context.zz_unitary(angle), list(pair))
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
