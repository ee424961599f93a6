"""Tests for M3, CVaR, ZNE and classical shadows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator, gmres

from repro.circuits import QuantumCircuit
from repro.exceptions import MitigationError
from repro.mitigation import (
    ClassicalShadowEstimator,
    M3Mitigator,
    cvar_expectation,
    fold_circuit,
    richardson_extrapolate,
    zne_expectation,
)
from repro.mitigation.m3 import QuasiDistribution
from repro.noise import ReadoutError
from repro.simulators import simulate_statevector


class TestM3:
    def _noisy_counts(self, readout, ideal, shots=20_000, seed=0):
        """Generate noisy counts by pushing ideal probs through readout."""
        n = readout.num_qubits
        probs = np.zeros(1 << n)
        total = sum(ideal.values())
        for key, value in ideal.items():
            probs[int(key, 2)] = value / total
        noisy = readout.apply_to_probabilities(probs)
        rng = np.random.default_rng(seed)
        sampled = rng.multinomial(shots, noisy)
        return {
            format(i, f"0{n}b"): int(c)
            for i, c in enumerate(sampled)
            if c
        }

    def test_recovers_clean_distribution(self):
        readout = ReadoutError.uniform(3, 0.08)
        ideal = {"000": 0.5, "111": 0.5}
        counts = self._noisy_counts(readout, ideal)
        mitigated = M3Mitigator(readout).apply(counts)
        probs = mitigated.nearest_probability_distribution()
        assert probs.get("000", 0) == pytest.approx(0.5, abs=0.03)
        assert probs.get("111", 0) == pytest.approx(0.5, abs=0.03)

    def test_improves_expectation(self):
        readout = ReadoutError.asymmetric(4, p01=0.08, p10=0.03)
        ideal = {"0101": 0.7, "1010": 0.3}
        counts = self._noisy_counts(readout, ideal, seed=3)

        def parity(key):
            return (-1) ** key.count("1")

        true_value = 1.0  # both strings have even parity
        raw = sum(
            parity(k) * v for k, v in counts.items()
        ) / sum(counts.values())
        mitigated = M3Mitigator(readout).apply(counts)
        recovered = mitigated.expectation(parity)
        assert abs(recovered - true_value) < abs(raw - true_value)

    def test_direct_equals_iterative(self):
        readout = ReadoutError.uniform(3, 0.05)
        counts = self._noisy_counts(
            readout, {"000": 0.4, "011": 0.35, "110": 0.25}, seed=5
        )
        m3 = M3Mitigator(readout)
        direct = m3.apply(counts, method="direct")
        iterative = m3.apply(counts, method="iterative")
        for key in direct:
            assert direct[key] == pytest.approx(iterative[key], abs=1e-6)

    def test_distance_truncation_runs(self):
        readout = ReadoutError.uniform(3, 0.05)
        counts = self._noisy_counts(
            readout, {"000": 0.6, "111": 0.4}, seed=2
        )
        mitigated = M3Mitigator(readout).apply(counts, distance=2)
        assert abs(sum(mitigated.values()) - 1.0) < 0.1

    def test_size_mismatch_rejected(self):
        readout = ReadoutError.uniform(2, 0.05)
        with pytest.raises(MitigationError):
            M3Mitigator(readout).apply({"000": 10})

    def test_empty_counts_rejected(self):
        readout = ReadoutError.uniform(2, 0.05)
        with pytest.raises(MitigationError):
            M3Mitigator(readout).apply({})

    def test_bad_method(self):
        readout = ReadoutError.uniform(1, 0.05)
        with pytest.raises(MitigationError, match="unknown method"):
            M3Mitigator(readout).apply({"0": 10}, method="magic")
        with pytest.raises(MitigationError, match="distance must be >= 0"):
            M3Mitigator(readout).apply({"0": 10}, distance=-1)

    def test_too_many_bits_rejected(self):
        readout = ReadoutError.uniform(64, 0.05)
        with pytest.raises(MitigationError, match="at most 63 bits"):
            M3Mitigator(readout).apply({"1" * 64: 10})

    def test_from_backend(self):
        from repro.backends import FakeToronto

        mitigator = M3Mitigator.from_backend(FakeToronto(), [0, 1, 4])
        assert mitigator.readout.num_qubits == 3


def reference_m3(readout, counts, distance=None, method="iterative"):
    """The per-element M3 loop that ``M3Mitigator.apply`` must match.

    Each element is a product of per-qubit factors in qubit order; column
    norms and matvec rows are accumulated one element at a time, in
    index order, skipping elements beyond ``distance``.
    """
    keys = sorted(counts)
    shots = float(sum(counts.values()))
    p_noisy = np.array([counts[k] for k in keys], dtype=float) / shots
    indices = [int(k, 2) for k in keys]
    size = len(indices)

    def element(measured, prepared):
        prob = 1.0
        for q, mat in enumerate(readout.assignment_matrices):
            prob *= mat[(measured >> q) & 1, (prepared >> q) & 1]
        return float(prob)

    def coupled(measured, prepared):
        return (
            distance is None
            or bin(measured ^ prepared).count("1") <= distance
        )

    norms = np.zeros(size)
    for col, prepared in enumerate(indices):
        total = 0.0
        for measured in indices:
            if coupled(measured, prepared):
                total += element(measured, prepared)
        if total <= 0:
            raise MitigationError("zero column norm in M3 subspace")
        norms[col] = total

    if method == "direct":
        matrix = np.zeros((size, size))
        for col, prepared in enumerate(indices):
            for row, measured in enumerate(indices):
                if coupled(measured, prepared):
                    matrix[row, col] = (
                        element(measured, prepared) / norms[col]
                    )
        solution = np.linalg.solve(matrix, p_noisy)
    else:
        def matvec(vector):
            out = np.zeros(size)
            for col, prepared in enumerate(indices):
                weight = vector[col] / norms[col]
                if weight == 0.0:
                    continue
                for row, measured in enumerate(indices):
                    if coupled(measured, prepared):
                        out[row] += element(measured, prepared) * weight
            return out

        diagonal = np.array(
            [element(i, i) / norms[pos] for pos, i in enumerate(indices)]
        )
        solution, info = gmres(
            LinearOperator((size, size), matvec=matvec),
            p_noisy,
            M=LinearOperator((size, size), matvec=lambda v: v / diagonal),
            rtol=1e-8,
            atol=0.0,
        )
        assert info == 0
    return {key: float(x) for key, x in zip(keys, solution)}


class TestM3MatchesReference:
    """``apply`` equals the per-element loop bit for bit (``==``)."""

    @pytest.mark.parametrize("seed", range(16))
    def test_random_models_and_subspaces(self, seed):
        rng = np.random.default_rng(seed)
        num_qubits = 1 + seed % 8
        flips = rng.uniform(0.0, 0.1, size=(num_qubits, 2))
        readout = ReadoutError(
            [[[1 - p10, p01], [p10, 1 - p01]] for p10, p01 in flips]
        )
        size = int(rng.integers(1, min(1 << num_qubits, 32) + 1))
        counts = {
            format(int(index), f"0{num_qubits}b"): int(rng.integers(1, 200))
            for index in rng.choice(1 << num_qubits, size, replace=False)
        }
        mitigator = M3Mitigator(readout)
        for distance in (None, 0, 1, 2):
            for method in ("iterative", "direct"):
                assert mitigator.apply(
                    counts, distance=distance, method=method
                ) == reference_m3(readout, counts, distance, method)

    @pytest.mark.parametrize(
        "counts, distance",
        [({"1": 5}, None), ({"00": 7, "01": 5}, 0)],
    )
    def test_zero_column_norm(self, counts, distance):
        # qubit 0 always reads 0, so a prepared 1 on it is never measured
        # as itself; with no coupled neighbour its column sums to zero
        num_qubits = len(next(iter(counts)))
        readout = ReadoutError(
            [[[1.0, 1.0], [0.0, 0.0]]]
            + [[[0.9, 0.1], [0.1, 0.9]]] * (num_qubits - 1)
        )
        with pytest.raises(MitigationError, match="zero column norm"):
            reference_m3(readout, counts, distance)
        with pytest.raises(MitigationError, match="zero column norm"):
            M3Mitigator(readout).apply(counts, distance=distance)


class TestQuasiDistribution:
    def test_nearest_probability_all_positive(self):
        quasi = QuasiDistribution({"00": 0.6, "11": 0.4})
        probs = quasi.nearest_probability_distribution()
        assert probs == pytest.approx({"00": 0.6, "11": 0.4})

    def test_nearest_probability_clips_negative(self):
        quasi = QuasiDistribution({"00": 1.04, "01": -0.04})
        probs = quasi.nearest_probability_distribution()
        assert "01" not in probs
        assert probs["00"] == pytest.approx(1.0)
        assert all(v >= 0 for v in probs.values())

    def test_nonpositive_total_mass_projects_instead_of_raising(self):
        # a net-negative quasi-distribution cannot be renormalised for
        # the smallest-first walk, but its nearest probability
        # distribution is still well defined (Euclidean projection) —
        # hypothesis found this with seed=181 of the property below
        quasi = QuasiDistribution(
            {"00": 0.567, "01": -0.131, "10": -0.150, "11": -0.375}
        )
        probs = quasi.nearest_probability_distribution()
        assert sum(probs.values()) == pytest.approx(1.0)
        assert all(v >= 0 for v in probs.values())
        # projection keeps the ordering: the positive entry dominates
        assert probs["00"] > 0.5

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 1000))
    def test_projection_sums_to_one_property(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(0.25, 0.3, 4)
        values[0] = abs(values[0]) + 0.5  # ensure positive mass
        quasi = QuasiDistribution(
            {format(i, "02b"): float(v) for i, v in enumerate(values)}
        )
        probs = quasi.nearest_probability_distribution()
        assert sum(probs.values()) == pytest.approx(1.0)
        assert all(v >= -1e-12 for v in probs.values())


class TestCVaR:
    def test_alpha_one_is_mean(self):
        counts = {"a": 10, "b": 30}
        score = {"a": 1.0, "b": 3.0}.__getitem__
        assert cvar_expectation(counts, score, 1.0) == pytest.approx(2.5)

    def test_small_alpha_tends_to_best(self):
        counts = {"good": 10, "bad": 990}
        score = {"good": 9.0, "bad": 1.0}.__getitem__
        assert cvar_expectation(counts, score, 0.01) == pytest.approx(9.0)

    def test_monotone_in_alpha(self):
        counts = {"a": 25, "b": 25, "c": 50}
        score = {"a": 3.0, "b": 2.0, "c": 1.0}.__getitem__
        values = [
            cvar_expectation(counts, score, alpha)
            for alpha in (0.1, 0.3, 0.6, 1.0)
        ]
        assert values == sorted(values, reverse=True)


class TestZNE:
    def test_fold_preserves_unitary(self):
        from repro.utils.linalg import process_fidelity
        from repro.simulators import circuit_to_unitary

        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).rz(0.4, 1)
        folded = fold_circuit(qc, 3)
        assert folded.size() == 3 * qc.size()
        assert process_fidelity(
            circuit_to_unitary(folded), circuit_to_unitary(qc)
        ) > 1 - 1e-9

    def test_fold_keeps_measurements(self):
        qc = QuantumCircuit(1)
        qc.x(0)
        qc.measure_all()
        folded = fold_circuit(qc, 3)
        assert folded.count_ops()["measure"] == 1
        assert folded.count_ops()["x"] == 3

    def test_even_scale_rejected(self):
        with pytest.raises(MitigationError):
            fold_circuit(QuantumCircuit(1), 2)

    def test_richardson_linear(self):
        # y = 1 - 0.1 s  -> extrapolates to 1.0
        assert richardson_extrapolate(
            [1, 3], [0.9, 0.7]
        ) == pytest.approx(1.0)

    def test_richardson_validation(self):
        with pytest.raises(MitigationError):
            richardson_extrapolate([1], [0.9])
        with pytest.raises(MitigationError):
            richardson_extrapolate([1, 1], [0.9, 0.8])

    def test_zne_on_simulated_decay(self):
        # emulate an observable decaying exponentially with circuit length
        def evaluate(circuit):
            return float(np.exp(-0.05 * circuit.size()))

        qc = QuantumCircuit(1)
        for _ in range(4):
            qc.x(0)
        estimate, values = zne_expectation(qc, evaluate, (1, 3, 5))
        assert len(values) == 3
        assert estimate > values[0] > values[1] > values[2]


class TestClassicalShadows:
    def _collect(self, base_circuit, estimator, snapshots, seed=0):
        rng = np.random.default_rng(seed)
        for bases in estimator.sample_bases(snapshots):
            circuit = estimator.measurement_circuit(base_circuit, bases)
            state = simulate_statevector(
                circuit.remove_final_measurements()
            )
            counts = state.sample_counts(1, seed=int(rng.integers(2**31)))
            outcome = next(iter(counts))
            estimator.add_snapshot(bases, outcome)

    def test_zz_estimate_on_product_state(self):
        qc = QuantumCircuit(2)
        qc.x(0)  # |01>: Z0 Z1 = -1
        estimator = ClassicalShadowEstimator(2, seed=1)
        self._collect(qc, estimator, 1500)
        estimate = estimator.expectation_zz(0, 1)
        assert estimate == pytest.approx(-1.0, abs=0.35)

    def test_expected_cut_estimate(self):
        from repro.problems import MaxCutProblem, three_regular_6

        problem = MaxCutProblem(three_regular_6())
        qc = QuantumCircuit(6)
        for q in (0, 2, 4):
            qc.x(q)  # the optimal partition 010101
        estimator = ClassicalShadowEstimator(6, seed=2)
        self._collect(qc, estimator, 2500)
        estimate = estimator.expected_cut(problem.edges)
        assert estimate == pytest.approx(9.0, abs=1.5)

    def test_label_validation(self):
        estimator = ClassicalShadowEstimator(2)
        with pytest.raises(MitigationError):
            estimator.expectation_pauli("ZZZ")
        with pytest.raises(MitigationError):
            estimator.expectation_pauli("ZZ")  # no snapshots yet

    def test_measured_circuit_rejected(self):
        estimator = ClassicalShadowEstimator(1)
        qc = QuantumCircuit(1)
        qc.measure_all()
        with pytest.raises(MitigationError):
            estimator.measurement_circuit(qc, [0])
