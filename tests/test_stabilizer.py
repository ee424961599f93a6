"""Tests for the stabilizer/Clifford back-end and its dispatch rules."""

import numpy as np
import pytest

from repro.backends import (
    FakeGuadalupe,
    Target,
    execute_circuit,
    select_method,
)
from repro.circuits import QuantumCircuit
from repro.circuits.gates import standard_gate
from repro.exceptions import BackendError, SimulatorError
from repro.noise import NoiseModel, ReadoutError
from repro.simulators import total_variation
from repro.simulators.stabilizer import (
    StabilizerProgram,
    StabilizerTableau,
    clifford_conjugation_table,
    is_clifford_matrix,
    measurement_marginal,
    pauli_channel_terms,
    run_stabilizer_program,
)
from repro.simulators.statevector import Statevector
from repro.transpiler import CouplingMap
from repro.utils.kernels import marginalize

CLIFFORD_1Q = ["h", "s", "sdg", "x", "y", "z", "sx"]
CLIFFORD_2Q = ["cx", "cz", "swap"]


def clifford_circuit(n, seed=0, measured=None):
    """A seeded random layered Clifford circuit on ``n`` line qubits."""
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(n, n if measured is None else measured)
    for layer in range(3):
        for q in range(n):
            getattr(qc, CLIFFORD_1Q[int(rng.integers(len(CLIFFORD_1Q)))])(q)
        for q in range(layer % 2, n - 1, 2):
            qc.cx(q, q + 1)
    for c in range(qc.num_clbits):
        qc.measure(c, c)
    return qc


def ghz_clifford(n, target=None):
    """GHZ-family Clifford circuit with a cancellation-free marginal.

    Byte-identity with the statevector method needs the float pipeline
    to reproduce the exact marginal's support: amplitude cancellations
    leave ~1e-34 residue categories that shift the multinomial's RNG
    consumption.  This family has none (verified by
    ``test_exact_marginal_support_matches_statevector``).
    """
    qc = QuantumCircuit(n, n)
    qc.h(0)
    for i in range(n - 1):
        qc.cx(i, i + 1)
    qc.s(1)
    qc.sx(2 % n)
    qc.x(0)
    for i in range(n):
        qc.measure(i, i)
    return qc


def pauli_noise(num_qubits, readout=0.02):
    """Depolarizing gate errors + classical readout: all Pauli-mixture."""
    noise = NoiseModel(num_qubits)
    noise.add_depolarizing_error("cx", 0.02, 2)
    for name in CLIFFORD_1Q:
        noise.add_depolarizing_error(name, 0.002, 1)
    if readout:
        noise.set_readout_error(ReadoutError.uniform(num_qubits, readout))
    return noise


@pytest.fixture(scope="module")
def backend():
    return FakeGuadalupe()


# ---------------------------------------------------------------------------
# tableau-level correctness
# ---------------------------------------------------------------------------

class TestCliffordTable:
    def test_library_cliffords_compile(self):
        for name in CLIFFORD_1Q + CLIFFORD_2Q:
            assert is_clifford_matrix(standard_gate(name).matrix()), name

    def test_non_clifford_rejected(self):
        assert not is_clifford_matrix(standard_gate("t").matrix())
        assert not is_clifford_matrix(standard_gate("rz", [0.3]).matrix())
        assert not is_clifford_matrix(standard_gate("rzz", [0.7]).matrix())

    def test_rz_snaps_to_clifford_at_quarter_turns(self):
        # global phase is irrelevant under conjugation, so rz(k*pi/2)
        # compiles even though its matrix is not literally S/Z/Sdg
        for k in range(1, 4):
            assert is_clifford_matrix(
                standard_gate("rz", [k * np.pi / 2]).matrix()
            )

    def test_marginals_match_statevector_on_random_cliffords(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            state = Statevector(n)
            tableau = StabilizerTableau(n)
            for _ in range(12):
                if n > 1 and rng.random() < 0.4:
                    gate = standard_gate(
                        CLIFFORD_2Q[int(rng.integers(len(CLIFFORD_2Q)))]
                    )
                    qubits = list(rng.choice(n, size=2, replace=False))
                else:
                    gate = standard_gate(
                        CLIFFORD_1Q[int(rng.integers(len(CLIFFORD_1Q)))]
                    )
                    qubits = [int(rng.integers(n))]
                matrix = gate.matrix()
                state.apply_unitary(matrix, qubits)
                tableau.apply_clifford(
                    clifford_conjugation_table(matrix), qubits
                )
            k = int(rng.integers(1, n + 1))
            positions = sorted(
                rng.choice(n, size=k, replace=False).tolist()
            )
            reference = marginalize(state.probabilities(), positions, n)
            exact = measurement_marginal(tableau, positions)
            assert np.allclose(reference, exact, atol=1e-9)

    def test_marginal_probabilities_are_exact_dyadics(self):
        tableau = StabilizerTableau(3)
        h = clifford_conjugation_table(standard_gate("h").matrix())
        cx = clifford_conjugation_table(standard_gate("cx").matrix())
        tableau.apply_clifford(h, [0])
        tableau.apply_clifford(cx, [0, 1])
        marginal = measurement_marginal(tableau, [0, 1, 2])
        assert marginal.tolist() == [0.5, 0, 0, 0.5, 0, 0, 0, 0]

    def test_pauli_channel_terms(self):
        from repro.noise.channels import (
            depolarizing_channel,
            pauli_channel,
            thermal_relaxation_channel,
        )

        terms = pauli_channel_terms(
            depolarizing_channel(0.1, 1).kraus_ops
        )
        assert terms is not None
        assert abs(sum(p for p, _, _ in terms) - 1.0) < 1e-12
        assert len(pauli_channel_terms(
            depolarizing_channel(0.1, 2).kraus_ops
        )) == 16
        assert pauli_channel_terms(
            pauli_channel({"X": 0.05, "Y": 0.02, "Z": 0.01}).kraus_ops
        ) is not None
        # amplitude damping is the canonical non-Pauli channel
        assert pauli_channel_terms(
            thermal_relaxation_channel(8e4, 6e4, 35.5).kraus_ops
        ) is None

    def test_stochastic_bitflip_statistics(self):
        program = StabilizerProgram(2)
        program.clifford(
            clifford_conjugation_table(standard_gate("h").matrix()), [0]
        )
        program.clifford(
            clifford_conjugation_table(standard_gate("cx").matrix()),
            [0, 1],
        )
        program.channel(((0.9, 0, 0), (0.1, 1, 0)), [1])
        assert program.is_stochastic
        counts, per_shot = run_stabilizer_program(program, 20_000, 5, [0, 1])
        assert per_shot
        shots = sum(counts.values())
        flipped = (counts.get(1, 0) + counts.get(2, 0)) / shots
        assert abs(flipped - 0.1) < 0.01  # fixed seed: deterministic

    def test_deterministic_program_reproducible(self):
        program = StabilizerProgram(2)
        program.clifford(
            clifford_conjugation_table(standard_gate("h").matrix()), [0]
        )
        assert not program.is_stochastic
        a, dense = run_stabilizer_program(program, 512, 3, [0, 1])
        b, _ = run_stabilizer_program(program, 512, 3, [0, 1])
        assert a == b
        assert dense is False  # the single-multinomial exact path

    def test_measure_needs_randomness_source(self):
        tableau = StabilizerTableau(1)
        tableau.apply_clifford(
            clifford_conjugation_table(standard_gate("h").matrix()), [0]
        )
        with pytest.raises(SimulatorError, match="rng"):
            tableau.measure(0)


# ---------------------------------------------------------------------------
# engine integration: dispatch + cross-method agreement
# ---------------------------------------------------------------------------

class TestStabilizerDispatch:
    def test_noisy_pauli_clifford_20q_resolves_to_stabilizer(self):
        """The acceptance scenario: 20 Clifford qubits + Pauli noise.

        Past every amplitude budget that could run it exactly, ``auto``
        resolves to the tableau.
        """
        target = Target(20, CouplingMap.from_line(20))
        noise = pauli_noise(20)
        circuit = clifford_circuit(20, seed=1)
        assert select_method(circuit, target, noise) == "stabilizer"
        result = execute_circuit(
            circuit, target, noise, shots=512, seed=4
        )
        assert result.metadata["method"] == "stabilizer"
        assert result.metadata["per_shot_sampling"] is True
        assert sum(result.counts.values()) == 512
        again = execute_circuit(
            circuit, target, noise, shots=512, seed=4
        )
        assert dict(again.counts) == dict(result.counts)

    def test_small_pauli_clifford_still_prefers_density(self, backend):
        # within the 4^n budget the vectorized exact path is cheaper
        # than per-shot tableau replays; the crossover sits at ~13
        noise = pauli_noise(backend.num_qubits)
        assert (
            select_method(clifford_circuit(8), backend.target, noise)
            == "density_matrix"
        )
        assert (
            select_method(clifford_circuit(13), backend.target, noise)
            == "stabilizer"
        )

    def test_noiseless_clifford_still_prefers_statevector(self, backend):
        assert (
            select_method(clifford_circuit(6), backend.target, None)
            == "statevector"
        )

    def test_clifford_with_non_pauli_noise_falls_back_to_trajectory(
        self, backend
    ):
        # relaxation (amplitude damping) is not a Pauli mixture: the
        # capability predicate must reject it and auto must pick the
        # trajectory fallback past the density budget
        circuit = clifford_circuit(16, seed=2)
        assert (
            select_method(circuit, backend.target, backend.noise_model)
            == "trajectory"
        )

    def test_zz_crosstalk_rejects_stabilizer(self, backend):
        noise = pauli_noise(backend.num_qubits)
        noise.zz_crosstalk_ghz = 1e-4
        circuit = clifford_circuit(16, seed=2)
        assert (
            select_method(circuit, backend.target, noise) == "trajectory"
        )

    def test_non_clifford_circuit_rejects_stabilizer(self, backend):
        circuit = clifford_circuit(16, seed=0)
        circuit.rz(0.3, 0)
        noise = pauli_noise(backend.num_qubits)
        assert (
            select_method(circuit, backend.target, noise) == "trajectory"
        )

    def test_explicit_stabilizer_on_non_clifford_raises(self, backend):
        circuit = clifford_circuit(4)
        circuit.rz(0.3, 0)
        with pytest.raises(BackendError, match="not a Clifford"):
            execute_circuit(
                circuit, backend.target, None, shots=8,
                method="stabilizer",
            )

    def test_mismatched_channel_width_rejected(self, backend):
        # a 1-qubit depolarizing channel misattached to cx: every
        # back-end refuses it with the same error when it compiles the
        # circuit (and auto must not dispatch to the tableau)
        noise = NoiseModel(backend.num_qubits)
        noise.add_depolarizing_error("cx", 0.2)  # num_qubits defaults 1
        circuit = clifford_circuit(13, seed=0)
        resolved = select_method(circuit, backend.target, noise)
        assert resolved != "stabilizer"
        for method in ("stabilizer", "trajectory"):
            with pytest.raises(BackendError, match="1-qubit noise channel"):
                execute_circuit(
                    circuit, backend.target, noise, shots=8, seed=0,
                    method=method,
                )

    def test_explicit_stabilizer_on_non_pauli_noise_raises(self, backend):
        with pytest.raises(BackendError, match="not a Pauli mixture"):
            execute_circuit(
                clifford_circuit(4), backend.target, backend.noise_model,
                shots=8, method="stabilizer",
            )

    def test_budget_is_256_qubits(self):
        # the budget check runs before the tableau is built, and no
        # other method's budget admits 257 qubits
        target = Target(257, CouplingMap.from_line(257))
        circuit = ghz_clifford(257)
        with pytest.raises(BackendError) as excinfo:
            execute_circuit(
                circuit, target, pauli_noise(257), shots=8,
                method="stabilizer",
            )
        message = str(excinfo.value)
        assert "257 active qubits exceed the 256-qubit stabilizer" in message
        assert "within budget" not in message


class TestStabilizerAgreement:
    def test_noiseless_counts_byte_identical_to_statevector(self, backend):
        """The deterministic path shares the exact methods' sampling.

        Same seed, same marginal, one multinomial: the tableau's counts
        reproduce the statevector back-end byte for byte (on circuits
        whose float marginal has no cancellation residues — see
        ``ghz_clifford``).
        """
        for n in (3, 5, 8, 12):
            circuit = ghz_clifford(n)
            for seed in (0, 11):
                sv = execute_circuit(
                    circuit, backend.target, None, shots=2048,
                    seed=seed, method="statevector",
                )
                st = execute_circuit(
                    circuit, backend.target, None, shots=2048,
                    seed=seed, method="stabilizer",
                )
                assert dict(st.counts) == dict(sv.counts)
                assert st.duration == sv.duration
                assert st.metadata["method"] == "stabilizer"
                assert st.metadata["per_shot_sampling"] is False

    def test_noiseless_20q_byte_identical_to_statevector(self):
        """The acceptance circuit size, noiseless: byte-for-byte."""
        target = Target(20, CouplingMap.from_line(20))
        circuit = ghz_clifford(20)
        sv = execute_circuit(
            circuit, target, None, shots=2048, seed=11,
            method="statevector",
        )
        st = execute_circuit(
            circuit, target, None, shots=2048, seed=11,
            method="stabilizer",
        )
        assert dict(st.counts) == dict(sv.counts)

    def test_exact_marginal_support_matches_statevector(self, backend):
        """Distribution-level exactness for the random-circuit family.

        The tableau marginal is exact dyadic; the statevector one may
        carry ~1e-34 cancellation residues, which is why *counts*
        byte-identity is only asserted on the residue-free family —
        the distributions themselves always agree to float precision.
        """
        from repro.backends.engine import (
            _CircuitPlan,
            _compile_stabilizer_program,
            _evolve_exact,
        )
        from repro.simulators.stabilizer import _replay

        for n, seed in ((4, 0), (6, 1), (8, 2)):
            circuit = clifford_circuit(n, seed=seed)
            plan = _CircuitPlan(circuit, backend.target)
            program, _ = _compile_stabilizer_program(plan, None, None, 0.5)
            tableau = StabilizerTableau(plan.num_local)
            _replay(tableau, program.steps, None)
            positions = [plan.local[q] for q in plan.measured_qubits]
            exact = measurement_marginal(tableau, positions)
            state, _ = _evolve_exact(
                plan, circuit, "statevector", None,
                np.random.default_rng(0), None, backend.target,
            )
            reference = marginalize(
                state.probabilities(), positions, plan.num_local
            )
            assert np.allclose(exact, reference, atol=1e-9)

    def test_readout_only_noise_byte_identical_to_statevector(
        self, backend
    ):
        noise = NoiseModel(backend.num_qubits)
        noise.set_readout_error(
            ReadoutError.uniform(backend.num_qubits, 0.03)
        )
        circuit = ghz_clifford(4)
        sv = execute_circuit(
            circuit, backend.target, noise, shots=2048, seed=5,
            method="statevector",
        )
        st = execute_circuit(
            circuit, backend.target, noise, shots=2048, seed=5,
            method="stabilizer",
        )
        assert dict(st.counts) == dict(sv.counts)

    def test_pauli_noise_tv_bounded_against_density(self, backend):
        """Per-shot sampling converges on the exact noisy distribution."""
        noise = pauli_noise(backend.num_qubits)
        circuit = clifford_circuit(4, seed=0)
        shots = 8192
        dm = execute_circuit(
            circuit, backend.target, noise, shots=shots, seed=1,
            method="density_matrix",
        )
        st = execute_circuit(
            circuit, backend.target, noise, shots=shots, seed=2,
            method="stabilizer",
        )
        tv = total_variation(dict(dm.counts), dict(st.counts))
        # fixed seeds: a deterministic statistical check, not a flaky one
        assert tv < 0.06, f"TV(stabilizer, density) = {tv:.4f}"

    def test_pauli_noise_tv_bounded_against_trajectory_16q(self, backend):
        """Past the density wall: tableau vs trajectory, same noise.

        16 active qubits exceed the density budget, so trajectory is
        the only other method that can run this — the cross-check the
        acceptance TV bound refers to (the 20-qubit version runs in
        ``bench_engine.py`` where its wall-clock belongs).
        """
        noise = pauli_noise(backend.num_qubits, readout=0.0)
        circuit = clifford_circuit(16, seed=1, measured=5)
        shots = 2048
        st = execute_circuit(
            circuit, backend.target, noise, shots=shots, seed=1,
            method="stabilizer",
        )
        traj = execute_circuit(
            circuit, backend.target, noise, shots=shots, seed=2,
            method="trajectory", trajectories=16,
        )
        tv = total_variation(dict(st.counts), dict(traj.counts))
        assert tv < 0.15, f"TV(stabilizer, trajectory) = {tv:.4f}"

    def test_wide_noiseless_register_samples_per_shot(self):
        """A 30-qubit Clifford register must not materialise 2^30 floats.

        Past ``DENSE_MARGINAL_MAX_QUBITS`` the deterministic path
        switches to per-shot sampling — polynomial memory, still exact
        per-shot draws — instead of the dense-marginal multinomial.
        """
        target = Target(30, CouplingMap.from_line(30))
        circuit = ghz_clifford(30)
        assert select_method(circuit, target, None) == "stabilizer"
        result = execute_circuit(circuit, target, None, shots=64, seed=3)
        assert result.metadata["method"] == "stabilizer"
        assert result.metadata["per_shot_sampling"] is True
        assert sum(result.counts.values()) == 64
        again = execute_circuit(circuit, target, None, shots=64, seed=3)
        assert dict(again.counts) == dict(result.counts)


class TestStabilizerService:
    def test_inline_service_matches_direct_execution(self):
        local = FakeGuadalupe()
        local.noise_model = pauli_noise(local.num_qubits)
        circuit = clifford_circuit(13, seed=2)
        direct = execute_circuit(
            circuit, local.target, local.noise_model, shots=256, seed=9,
            method="stabilizer",
        )
        try:
            inline = local.run(circuit, shots=256, seeds=[9])
            pooled = local.run(
                [circuit, circuit], shots=256, seeds=[9, 9], jobs=2
            )
        finally:
            local.close_services()
        for experiment in (inline.experiments[0], *pooled.experiments):
            assert experiment.metadata["method"] == "stabilizer"
            assert dict(experiment.counts) == dict(direct.counts)
