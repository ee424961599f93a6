"""Tests for the co-optimization workflow and duration search.

These use reduced optimizer budgets; the full-budget behaviour is
exercised by ``python -m repro.experiments <name>``, which checks it
against the paper's numbers in ``repro.experiments.config``.
"""

import pickle

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
from repro.experiments import ExperimentConfig, table2
from repro.mitigation.m3 import M3Mitigator
from repro.noise import ReadoutError
from repro.problems import MaxCutProblem, three_regular_6
from repro.vqa import ExpectedCutCost
from repro.vqa.optimizers import COBYLA
from test_transpile_template import assert_same, counts_since, template_counts


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


class TestSharedTemplates:
    def test_toronto_column_builds_one_template_per_settings(
        self, problem, monkeypatch
    ):
        # a Table II column: two models through four stages, plus the
        # hybrid model's PO search.  The GO, M3 and CVaR stages share
        # one transpile setting, the raw stage and the search another,
        # so each model's structure is traced twice: 4 builds, not 9
        backend = FakeToronto()
        prepare = ExecutionPipeline.prepare
        prepared = []

        def checked_prepare(pipeline, circuit):
            bound = prepare(pipeline, circuit)
            assert_same(bound, pipeline._transpile(circuit), circuit)
            prepared.append(bound)
            return bound

        monkeypatch.setattr(ExecutionPipeline, "prepare", checked_prepare)
        before = template_counts()
        for model in (
            GateLevelModel(problem),
            HybridGatePulseModel(problem, backend.device),
        ):
            workflow = HybridWorkflow(
                problem,
                backend,
                model,
                optimizer_factory=lambda: COBYLA(maxiter=3),
                shots=128,
                seed=12,
            )
            stages = workflow.run_all()
            if isinstance(model, HybridGatePulseModel):
                workflow.pulse_optimization(stages["raw"].train)
        counts = counts_since(before)
        assert counts["built"] == 4 and counts["untraceable"] == 0
        # a bind the guard refuses is transpiled afresh, still checked
        assert counts["bound"] + counts["fallback"] == len(prepared)
        assert len(backend.transpile_templates) == 4


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


@pytest.fixture
def mitigator_builds(monkeypatch):
    """The ``(backend, qubits)`` of every ``M3Mitigator.from_backend``
    call made while the test runs."""
    built = []
    build = M3Mitigator.from_backend.__func__

    def counting(cls, backend, qubits):
        built.append((backend.name, tuple(qubits)))
        return build(cls, backend, qubits)

    monkeypatch.setattr(M3Mitigator, "from_backend", classmethod(counting))
    return built


class TestMitigatorMemo:
    """The M3 mitigators live on the backend, keyed by its readout error
    and the measured qubits, so every stage pipeline shares them."""

    def test_one_toronto_column_builds_one_mitigator(
        self, monkeypatch, mitigator_builds
    ):
        # gate and hybrid, m3 and cvar stages: one (backend, qubits) pair
        monkeypatch.setattr(table2, "BACKENDS", ("toronto",))
        table2.run(ExperimentConfig(quick=True, maxiter=2, shots=64))
        assert len(mitigator_builds) == 1

    def test_new_readout_error_builds_a_new_mitigator(
        self, problem, mitigator_builds
    ):
        backend = FakeToronto()
        workflow = HybridWorkflow(
            problem,
            backend,
            GateLevelModel(problem),
            optimizer_factory=lambda: COBYLA(maxiter=2),
            shots=64,
            seed=3,
        )
        workflow.run_stage("m3")
        workflow.run_stage("cvar")
        assert len(mitigator_builds) == 1
        noise = backend.noise_model
        noise.set_readout_error(ReadoutError.uniform(noise.num_qubits, 0.05))
        workflow.run_stage("cvar")
        assert len(mitigator_builds) == 2
        assert mitigator_builds[0] == mitigator_builds[1]
        (qubits,) = {qubits for _name, qubits in mitigator_builds}
        current = backend.m3_mitigators.get_or_compute(
            (noise.readout_error, qubits), lambda: None
        )
        assert current.readout.assignment_matrices[0][1, 0] == 0.05

    def test_pickled_backend_ships_no_mitigator(self, problem):
        backend = FakeToronto()
        HybridWorkflow(
            problem,
            backend,
            GateLevelModel(problem),
            optimizer_factory=lambda: COBYLA(maxiter=2),
            shots=64,
            seed=3,
        ).run_stage("m3")
        assert len(backend.m3_mitigators) == 1
        copy = pickle.loads(pickle.dumps(backend))
        assert len(copy.m3_mitigators) == 0
        assert copy.m3_mitigators.name == backend.m3_mitigators.name
        assert len(backend.m3_mitigators) == 1
