"""Tests for the co-optimization workflow and duration search.

These use reduced optimizer budgets; the full-budget behaviour is
exercised by ``python -m repro.experiments <name>``, which checks it
against the paper's numbers in ``repro.experiments.config``.
"""

import numpy as np
import pytest

from repro.backends import FakeAuckland, FakeToronto
from repro.core import (
    ExecutionPipeline,
    GateLevelModel,
    HybridGatePulseModel,
    HybridWorkflow,
    binary_search_mixer_duration,
    train_model,
)
from repro.exceptions import ProblemError
from repro.problems import MaxCutProblem, three_regular_6
from repro.vqa import ExpectedCutCost
from repro.vqa.optimizers import COBYLA


@pytest.fixture(scope="module")
def backend():
    return FakeToronto()


@pytest.fixture(scope="module")
def problem():
    return MaxCutProblem(three_regular_6())


class TestWorkflowStages:
    def test_stage_pipelines_configured(self, problem, backend):
        workflow = HybridWorkflow(
            problem, backend, GateLevelModel(problem), seed=1
        )
        raw = workflow._pipeline("raw")
        go = workflow._pipeline("go")
        m3 = workflow._pipeline("m3")
        cvar = workflow._pipeline("cvar")
        assert not raw.gate_optimization and not raw.use_m3
        assert go.gate_optimization and not go.use_m3
        assert m3.gate_optimization and m3.use_m3
        assert cvar.use_m3 and cvar.cost.name == "cvar"

    def test_unknown_stage(self, problem, backend):
        workflow = HybridWorkflow(
            problem, backend, GateLevelModel(problem)
        )
        with pytest.raises(ProblemError):
            workflow.run_stage("bogus")

    def test_run_stage_result_fields(self, problem, backend):
        workflow = HybridWorkflow(
            problem,
            backend,
            GateLevelModel(problem),
            optimizer_factory=lambda: COBYLA(maxiter=6),
            shots=256,
            seed=4,
        )
        result = workflow.run_stage("raw")
        assert 0.0 <= result.approximation_ratio <= 1.0
        assert result.mixer_duration == 320
        assert result.circuit_duration > 0
        assert result.train.iterations > 0

    def test_cvar_stage_scores_higher(self, problem, backend):
        workflow = HybridWorkflow(
            problem,
            backend,
            GateLevelModel(problem),
            optimizer_factory=lambda: COBYLA(maxiter=8),
            shots=1024,
            seed=6,
        )
        raw = workflow.run_stage("raw")
        cvar = workflow.run_stage("cvar")
        assert cvar.approximation_ratio > raw.approximation_ratio

    def test_pulse_optimization_requires_hybrid(self, problem, backend):
        workflow = HybridWorkflow(
            problem,
            backend,
            GateLevelModel(problem),
            optimizer_factory=lambda: COBYLA(maxiter=5),
            shots=256,
            seed=2,
        )
        result = workflow.run_stage("raw")
        with pytest.raises(ProblemError):
            workflow.pulse_optimization(result.train)


class TestDurationSearch:
    def test_search_compresses_substantially(self, problem, backend):
        """The search cuts the mixer by >= 40% on the 32 dt grid."""
        pipeline = ExecutionPipeline(
            backend=backend, cost=ExpectedCutCost(problem), shots=512
        )
        model = HybridGatePulseModel(problem, backend.device)
        trained = train_model(
            model, pipeline, COBYLA(maxiter=20), seed=9
        )
        search = binary_search_mixer_duration(
            model,
            pipeline,
            trained.best_parameters,
            seed=10,
            evaluations_per_point=1,
        )
        assert search.duration % 32 == 0
        assert search.duration <= 192  # >= 40% reduction
        assert search.reduction >= 0.4
        # 128 dt is always amp-feasible; below it the |amp| <= 1 bound
        # bites whenever the search descends that far
        assert all(
            duration < 128
            for duration, reason in search.infeasible.items()
            if "amp" in reason
        )

    def test_search_restores_model_duration(self, problem, backend):
        pipeline = ExecutionPipeline(
            backend=backend, cost=ExpectedCutCost(problem), shots=256
        )
        model = HybridGatePulseModel(problem, backend.device)
        params = model.initial_point(3)
        binary_search_mixer_duration(
            model, pipeline, params, seed=1, evaluations_per_point=1
        )
        assert model.mixer_pulse_duration == 320

    def test_granularity_validation(self, problem, backend):
        pipeline = ExecutionPipeline(
            backend=backend, cost=ExpectedCutCost(problem)
        )
        model = HybridGatePulseModel(problem, backend.device)
        with pytest.raises(ProblemError):
            binary_search_mixer_duration(
                model, pipeline, model.initial_point(0), minimum=20
            )


class TestCrossBackend:
    def test_auckland_runs_too(self, problem):
        backend = FakeAuckland()
        workflow = HybridWorkflow(
            problem,
            backend,
            HybridGatePulseModel(problem, backend.device),
            optimizer_factory=lambda: COBYLA(maxiter=5),
            shots=256,
            seed=8,
        )
        result = workflow.run_stage("raw")
        assert 0.0 <= result.approximation_ratio <= 1.0
