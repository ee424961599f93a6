"""The three-step gate-pulse co-optimization workflow (paper Fig. 3).

Each *stage* corresponds to one row family of Table II:

* ``raw``  — fixed layout, no extra optimization, expected-cut objective;
* ``go``   — Step II gate optimization (commutative cancellation on top
  of SABRE routing);
* ``m3``   — Step III measurement-error mitigation on top of ``go``;
* ``cvar`` — Step III CVaR(0.3) objective on top of ``m3``.

Step I (pulse optimization) is exposed separately through
:meth:`HybridWorkflow.pulse_optimization`, since the paper reports it as
the mixer-duration row rather than an AR row.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.backends.backend import SimulatedBackend
from repro.backends.engine import check_method_name
from repro.core.duration_search import (
    DurationSearchResult,
    binary_search_mixer_duration,
)
from repro.core.models import HybridGatePulseModel, QAOAModelBase
from repro.core.training import ExecutionPipeline, TrainResult, train_model
from repro.exceptions import ProblemError
from repro.problems.maxcut import MaxCutProblem
from repro.utils.rng import derive_seed
from repro.vqa.cost import CVaRCost, ExpectedCutCost
from repro.vqa.optimizers import COBYLA, Optimizer

STAGES = ("raw", "go", "m3", "cvar")


@dataclass
class StageResult:
    """AR and bookkeeping of one workflow stage."""

    stage: str
    approximation_ratio: float
    cost_value: float
    circuit_duration: int
    mixer_duration: int
    train: TrainResult


class HybridWorkflow:
    """Run a QAOA model through the co-optimization stages."""

    def __init__(
        self,
        problem: MaxCutProblem,
        backend: SimulatedBackend,
        model: QAOAModelBase,
        optimizer_factory: Callable[[], Optimizer] | None = None,
        layout: Sequence[int] | None = None,
        shots: int = 1024,
        cvar_alpha: float = 0.3,
        seed: int | None = None,
        jobs: int = 1,
        method: str = "auto",
    ) -> None:
        self.problem = problem
        self.backend = backend
        self.model = model
        self.optimizer_factory = optimizer_factory or (
            lambda: COBYLA(maxiter=50)
        )
        self.layout = layout
        self.shots = shots
        self.cvar_alpha = cvar_alpha
        self.seed = seed
        #: worker processes for every stage's multi-circuit batches
        #: (today the PO search's); results are seed-identical for any
        #: value (:mod:`repro.service`)
        self.jobs = jobs
        #: simulation method for every stage's executions
        #: (PERFORMANCE.md "Simulation methods"), checked against
        #: ``repro.backends.METHODS`` here
        check_method_name(method)
        self.method = method

    # ------------------------------------------------------------------
    def _pipeline(self, stage: str) -> ExecutionPipeline:
        if stage not in STAGES:
            raise ProblemError(
                f"unknown stage {stage!r}; choose from {STAGES}"
            )
        if stage == "cvar":
            cost = CVaRCost(self.problem, self.cvar_alpha)
        else:
            cost = ExpectedCutCost(self.problem)
        return ExecutionPipeline(
            backend=self.backend,
            cost=cost,
            layout=self.layout,
            gate_optimization=stage in ("go", "m3", "cvar"),
            use_m3=stage in ("m3", "cvar"),
            shots=self.shots,
            jobs=self.jobs,
            method=self.method,
        )

    def run_stage(self, stage: str) -> StageResult:
        """Train the model under one stage's pipeline and score it."""
        pipeline = self._pipeline(stage)
        optimizer = self.optimizer_factory()
        train = train_model(
            self.model,
            pipeline,
            optimizer,
            seed=derive_seed(self.seed, "stage", stage),
        )
        return StageResult(
            stage=stage,
            approximation_ratio=self.problem.approximation_ratio(
                train.best_value
            ),
            cost_value=train.best_value,
            circuit_duration=train.circuit_duration,
            mixer_duration=train.mixer_duration,
            train=train,
        )

    def run_all(
        self, stages: Sequence[str] = STAGES
    ) -> dict[str, StageResult]:
        """Run several stages; returns a stage -> result mapping."""
        return {stage: self.run_stage(stage) for stage in stages}

    # ------------------------------------------------------------------
    def pulse_optimization(
        self,
        train_result: TrainResult,
        stage: str = "raw",
        tolerance: float = 0.02,
    ) -> DurationSearchResult:
        """Step I: compress the hybrid model's mixer duration.

        Only meaningful for :class:`HybridGatePulseModel`; the returned
        search result leaves the model at its original duration — call
        ``model.set_mixer_duration(result.duration)`` to adopt it.
        """
        if not isinstance(self.model, HybridGatePulseModel):
            raise ProblemError(
                "pulse optimization applies to the hybrid model only"
            )
        pipeline = self._pipeline(stage)
        return binary_search_mixer_duration(
            self.model,
            pipeline,
            np.asarray(train_result.best_parameters),
            tolerance=tolerance,
            seed=derive_seed(self.seed, "po"),
        )
