"""Tests for ansätze, cost functions, optimizers and traces."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.exceptions import OptimizerError, ProblemError
from repro.problems import MaxCutProblem, three_regular_6
from repro.simulators import simulate_statevector
from repro.vqa import (
    COBYLA,
    SPSA,
    ConvergenceTrace,
    CVaRCost,
    ExpectedCutCost,
    NelderMead,
    hardware_efficient_ansatz,
    qaoa_ansatz,
)


class TestQAOAAnsatz:
    def test_structure(self):
        circuit, gammas, betas = qaoa_ansatz(three_regular_6(), p=2)
        assert len(gammas) == 2 and len(betas) == 2
        ops = circuit.count_ops()
        assert ops["h"] == 6
        assert ops["rzz"] == 18  # 9 edges x 2 layers
        assert ops["rx"] == 12
        assert ops["measure"] == 6
        assert circuit.num_parameters == 4

    def test_p_zero_rejected(self):
        with pytest.raises(ProblemError):
            qaoa_ansatz(three_regular_6(), p=0)

    def test_uniform_superposition_at_zero_angles(self):
        circuit, gammas, betas = qaoa_ansatz(
            three_regular_6(), p=1, measure=False
        )
        bound = circuit.assign_parameters(
            {gammas[0]: 0.0, betas[0]: 0.0}
        )
        state = simulate_statevector(bound)
        np.testing.assert_allclose(
            state.probabilities(), np.full(64, 1 / 64), atol=1e-12
        )

    def test_known_noiseless_performance(self):
        """Noiseless p=1 QAOA must beat random guessing on task 1."""
        problem = MaxCutProblem(three_regular_6())
        circuit, gammas, betas = qaoa_ansatz(
            three_regular_6(), p=1, measure=False
        )
        diag = problem.cut_values()

        best = 0.0
        for gamma in np.linspace(0.2, 1.4, 9):
            for beta in np.linspace(0.1, 1.2, 9):
                bound = circuit.assign_parameters(
                    {gammas[0]: gamma, betas[0]: 2 * beta}
                )
                state = simulate_statevector(bound)
                best = max(best, state.expectation_diagonal(diag))
        assert best / problem.maximum_cut() > 0.6


class TestHardwareEfficientAnsatz:
    def test_parameter_count(self):
        circuit, params = hardware_efficient_ansatz(4, depth=2)
        assert len(params) == 3 * 4 * 3
        assert circuit.num_parameters == len(params)

    def test_entanglement_patterns(self):
        linear, _ = hardware_efficient_ansatz(4, 1, "linear")
        circular, _ = hardware_efficient_ansatz(4, 1, "circular")
        full, _ = hardware_efficient_ansatz(4, 1, "full")
        assert linear.count_ops()["cx"] == 3
        assert circular.count_ops()["cx"] == 4
        assert full.count_ops()["cx"] == 6

    def test_bad_entanglement(self):
        with pytest.raises(ProblemError):
            hardware_efficient_ansatz(3, 1, "star")


class TestCosts:
    def test_expected_cut_cost(self):
        problem = MaxCutProblem(three_regular_6())
        cost = ExpectedCutCost(problem)
        assert cost({"010101": 1}) == pytest.approx(9.0)

    def test_cvar_cost(self):
        problem = MaxCutProblem(three_regular_6())
        cost = CVaRCost(problem, alpha=0.5)
        counts = {"010101": 50, "000000": 50}
        assert cost(counts) == pytest.approx(9.0)

    def test_cvar_alpha_validation(self):
        problem = MaxCutProblem(three_regular_6())
        with pytest.raises(ProblemError):
            CVaRCost(problem, alpha=1.5)


class TestOptimizers:
    @pytest.mark.parametrize(
        "optimizer",
        [COBYLA(maxiter=80), NelderMead(maxiter=200), SPSA(maxiter=150, seed=0)],
    )
    def test_quadratic_bowl(self, optimizer):
        result = optimizer.minimize(
            lambda x: float(np.sum((x - 1.5) ** 2)), [0.0, 0.0]
        )
        np.testing.assert_allclose(result.x, [1.5, 1.5], atol=0.2)

    def test_bounds_respected(self):
        optimizer = COBYLA(maxiter=60)
        result = optimizer.minimize(
            lambda x: float((x[0] - 5.0) ** 2),
            [0.5],
            bounds=[(0.0, 1.0)],
        )
        assert 0.0 <= result.x[0] <= 1.0

    def test_history_recorded(self):
        optimizer = COBYLA(maxiter=20)
        result = optimizer.minimize(lambda x: float(x[0] ** 2), [1.0])
        assert result.nfev == len(result.history) > 0

    def test_bounds_length_check(self):
        with pytest.raises(OptimizerError):
            COBYLA().minimize(lambda x: 0.0, [0.0, 1.0], bounds=[(0, 1)])

    def test_maxiter_validation(self):
        with pytest.raises(OptimizerError):
            COBYLA(maxiter=0)

    def test_spsa_noisy_objective(self):
        rng = np.random.default_rng(1)

        def noisy(x):
            return float(np.sum(x**2)) + rng.normal(0, 0.01)

        result = SPSA(maxiter=200, seed=2).minimize(noisy, [1.0, -1.0])
        assert np.linalg.norm(result.x) < 0.5

    @pytest.mark.parametrize(
        "optimizer",
        [COBYLA(maxiter=30), NelderMead(maxiter=40), SPSA(maxiter=10, seed=4)],
        ids=["cobyla", "nelder_mead", "spsa"],
    )
    def test_objective_scored_one_point_per_call(self, optimizer):
        # every optimizer scores points through the plain callable: an
        # objective's other attributes (a former batched ``many`` hook
        # included) are never called
        points = []

        def objective(x):
            points.append(np.array(x, dtype=float))
            return float(np.sum((np.asarray(x) - 0.5) ** 2))

        def many(batch):
            raise AssertionError("the batched hook must not be called")

        objective.many = many
        result = optimizer.minimize(objective, [0.0, 1.0])
        assert result.nfev == len(points) == len(result.history) > 0
        assert result.history == [
            float(np.sum((p - 0.5) ** 2)) for p in points
        ]


class TestTrace:
    def test_best_tracking(self):
        trace = ConvergenceTrace()
        for value in (1.0, 3.0, 2.0):
            trace.record(np.array([value]), value)
        assert trace.best_value == 3.0
        assert trace.best_parameters[0] == 3.0
        assert trace.best_so_far() == [1.0, 3.0, 3.0]

    def test_iterations_to_reach(self):
        trace = ConvergenceTrace()
        for value in (1.0, 2.0, 5.0, 4.0):
            trace.record(np.array([0.0]), value)
        assert trace.iterations_to_reach(4.5) == 2
        assert trace.iterations_to_reach(10.0) is None

    def test_empty_trace_errors(self):
        with pytest.raises(ValueError):
            _ = ConvergenceTrace().best_value
