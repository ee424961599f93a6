"""Machine-in-loop training of QAOA models on simulated backends.

:class:`ExecutionPipeline` owns everything between "bound logical
circuit" and "scalar cost": fixed-layout SABRE routing, optional Step-II
gate optimization, optional Step-I pulse-efficient RZZ lowering, backend
execution, optional M3 mitigation, and the cost function (expected cut or
CVaR).  :func:`train_model` drives a classical optimizer over it, exactly
like the paper's setup (COBYLA, maxiter 50, 1024 shots, fixed qubit
mapping, CVaR coefficient 0.3).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro.backends.backend import SimulatedBackend
from repro.backends.engine import check_method_name
from repro.circuits.circuit import QuantumCircuit
from repro.core.models import QAOAModelBase
from repro.exceptions import BackendError
from repro.mitigation.m3 import M3Mitigator
from repro.transpiler.passes.basis import BasisTranslation
from repro.transpiler.passes.cancellation import CommutativeCancellation
from repro.transpiler.passes.pulse_efficient import PulseEfficientRZZ
from repro.transpiler.passes.routing import SabreSwap
from repro.transpiler.passmanager import TranspileContext
from repro.transpiler.template import (
    TEMPLATE_CACHE_SIZE,
    transpile_with_templates,
)
from repro.utils.cache import LRUCache
from repro.utils.rng import derive_seed
from repro.vqa.cost import CostFunction
from repro.vqa.optimizers.base import Optimizer
from repro.vqa.trace import ConvergenceTrace

#: default fixed logical->physical line layouts on the heavy-hex fakes
DEFAULT_LINE_LAYOUT = [0, 1, 4, 7, 10, 12, 13, 14, 16, 19]


@dataclass
class ExecutionPipeline:
    """Transpile + execute + score one bound circuit.

    :meth:`prepare` transpiles each circuit structure once and binds
    every later evaluation's angles into that template; the result is
    bit-identical to a fresh :meth:`_transpile` (PERFORMANCE.md,
    "Transpile once per circuit structure").
    """

    backend: SimulatedBackend
    cost: CostFunction
    layout: Sequence[int] | None = None
    gate_optimization: bool = False
    pulse_efficient: bool = False
    use_m3: bool = False
    shots: int = 1024
    routing_seed: int = 11
    #: worker-pool width for batched evaluations; 1 = inline (see
    #: SERVICE.md — results are seed-identical for any value)
    jobs: int = 1
    #: simulation method for every execution ("auto" dispatches per
    #: circuit; see PERFORMANCE.md "Simulation methods")
    method: str = "auto"
    #: trajectory count for the trajectory back-end: an int pins it,
    #: "auto" adapts it per circuit, None = default
    trajectories: int | str | None = None
    #: counts-distribution precision adaptive allocation stops at
    #: (implies trajectories="auto"; see PERFORMANCE.md)
    target_error: float | None = None
    _mitigator_cache: dict = field(default_factory=dict, repr=False)
    _pulse_pass: PulseEfficientRZZ | None = field(default=None, repr=False)
    #: structure key -> transpile template (PERFORMANCE.md "Transpile
    #: once per circuit structure"); not an init field, so a replaced
    #: pipeline starts its own
    _templates: LRUCache = field(
        default_factory=lambda: LRUCache(
            TEMPLATE_CACHE_SIZE, name="transpile_templates"
        ),
        init=False,
        repr=False,
        compare=False,
    )

    def __post_init__(self) -> None:
        # fail at construction, not hundreds of evaluations in: the
        # registry knows every valid method (plugins included)
        check_method_name(self.method)

    def resolved_layout(self, num_qubits: int) -> list[int]:
        layout = (
            list(self.layout)
            if self.layout is not None
            else DEFAULT_LINE_LAYOUT
        )
        if len(layout) < num_qubits:
            raise BackendError(
                f"layout of {len(layout)} qubits cannot host "
                f"{num_qubits}-qubit circuit"
            )
        return layout[:num_qubits]

    # ------------------------------------------------------------------
    def prepare(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """Route to the fixed layout, then apply the enabled passes,
        from this structure's template when it has one
        (:mod:`repro.transpiler.template`)."""
        return transpile_with_templates(
            self._templates, circuit, self._transpile
        )

    def _transpile(self, circuit: QuantumCircuit) -> QuantumCircuit:
        """The passes themselves, which every template reproduces."""
        layout = self.resolved_layout(circuit.num_qubits)
        context = TranspileContext()
        routed = SabreSwap(
            self.backend.coupling,
            initial_layout=layout,
            seed=self.routing_seed,
        )(circuit, context)
        if self.gate_optimization:
            routed = CommutativeCancellation()(routed, context)
        basis = {"rz", "sx", "x", "cx"}
        if self.pulse_efficient:
            basis.add("rzz")
        translated = BasisTranslation(basis)(routed, context)
        if self.gate_optimization:
            translated = CommutativeCancellation()(translated, context)
        if self.pulse_efficient:
            if self._pulse_pass is None:
                self._pulse_pass = PulseEfficientRZZ(self.backend.device)
            translated = self._pulse_pass(translated, context)
        translated.metadata["initial_layout"] = dict(
            context.initial_layout or {}
        )
        translated.metadata["final_layout"] = dict(
            context.final_layout or {}
        )
        return translated

    def execute(
        self, circuit: QuantumCircuit, seed: int | None = None
    ):
        """Prepare + run; returns the backend ExperimentResult."""
        return self.execute_many([circuit], seeds=[seed])[0]

    def execute_many(
        self,
        circuits: Sequence[QuantumCircuit],
        seeds: Sequence[int | None] | None = None,
    ) -> list:
        """Prepare + run a batch; returns one ExperimentResult per circuit.

        Each circuit is prepared on its own (circuits of one structure
        share its transpile template), then all of them go through the
        backend's batched engine path in a single call, sharing
        noise-channel and pulse-propagator derivation.  ``seeds`` gives
        the per-circuit shot seed; results match per-circuit
        :meth:`execute` calls seed-for-seed (each circuit uses the seed
        stream ``derive_seed(seed_i, "run", 0)``, exactly as a
        single-circuit run would).
        """
        prepared = [self.prepare(circuit) for circuit in circuits]
        if seeds is None:
            seeds = [None] * len(prepared)
        engine_seeds = [
            derive_seed(s, "run", 0) if s is not None else None
            for s in seeds
        ]
        result = self.backend.run(
            prepared,
            shots=self.shots,
            seeds=engine_seeds,
            jobs=self.jobs,
            method=self.method,
            trajectories=self.trajectories,
            target_error=self.target_error,
        )
        return result.experiments

    def evaluate(
        self, circuit: QuantumCircuit, seed: int | None = None
    ) -> tuple[float, dict]:
        """Full scoring path; returns (cost_value, info)."""
        return self.evaluate_many([circuit], seeds=[seed])[0]

    def evaluate_many(
        self,
        circuits: Sequence[QuantumCircuit],
        seeds: Sequence[int | None] | None = None,
    ) -> list[tuple[float, dict]]:
        """Batched scoring path; one (cost_value, info) pair per circuit.

        Used by sweep-style callers (duration search, experiment
        drivers) so the whole parameter sweep is amortized through
        :meth:`execute_many`.
        """
        experiments = self.execute_many(circuits, seeds=seeds)
        infos: list[dict] = []
        scorables: list = []
        for experiment in experiments:
            counts = experiment.counts
            info = {
                "duration": experiment.duration,
                "raw_counts": counts,
            }
            if self.use_m3:
                clbit_map = experiment.metadata["clbit_to_qubit"]
                physical = tuple(
                    clbit_map[c] for c in sorted(clbit_map)
                )
                mitigator = self._mitigator_cache.get(physical)
                if mitigator is None:
                    mitigator = M3Mitigator.from_backend(
                        self.backend, physical
                    )
                    self._mitigator_cache[physical] = mitigator
                quasi = mitigator.apply(counts)
                scores = quasi.nearest_probability_distribution()
                info["mitigated"] = scores
                scorables.append(scores)
            else:
                scorables.append(counts)
            infos.append(info)
        values = self.cost.evaluate_many(scorables)
        return list(zip(values, infos))


@dataclass
class TrainResult:
    """Outcome of one machine-in-loop optimisation."""

    best_parameters: np.ndarray
    best_value: float
    trace: ConvergenceTrace
    evaluations: int
    circuit_duration: int
    mixer_duration: int
    #: the optimizer's evaluation budget (``OptimizerResult.budget``)
    budget: int | None = None

    @property
    def iterations(self) -> int:
        return len(self.trace)


def train_model(
    model: QAOAModelBase,
    pipeline: ExecutionPipeline,
    optimizer: Optimizer,
    seed: int | None = None,
    initial_point: Sequence[float] | None = None,
    jobs: int | None = None,
) -> TrainResult:
    """Optimise ``model`` through ``pipeline`` with ``optimizer``.

    The objective is the negated cost (optimizers minimise); every
    evaluation uses a fresh derived shot-noise seed so the optimizer sees
    realistic sampling noise, as on hardware.

    The objective also exposes a batched form (``objective.many``):
    optimizers that evaluate several candidate points per step (SPSA's
    paired perturbations, population methods) score the whole population
    through :meth:`ExecutionPipeline.evaluate_many` in one call, which
    the execution service can shard across ``jobs`` workers.  Evaluation
    numbering — and therefore every derived shot seed — matches the
    sequential path exactly, so results are identical for any ``jobs``.
    """
    if jobs is not None and jobs != pipeline.jobs:
        pipeline = replace(pipeline, jobs=jobs)
    trace = ConvergenceTrace()
    counter = {"n": 0}

    def objective(values: np.ndarray) -> float:
        counter["n"] += 1
        circuit = model.build_circuit(values)
        value, _info = pipeline.evaluate(
            circuit, seed=derive_seed(seed, "eval", counter["n"])
        )
        trace.record(values, value)
        return -value

    def objective_many(points: Sequence[np.ndarray]) -> list[float]:
        circuits = []
        eval_seeds = []
        for values in points:
            counter["n"] += 1
            circuits.append(model.build_circuit(values))
            eval_seeds.append(derive_seed(seed, "eval", counter["n"]))
        scored = pipeline.evaluate_many(circuits, seeds=eval_seeds)
        out = []
        for values, (value, _info) in zip(points, scored):
            trace.record(values, value)
            out.append(-value)
        return out

    objective.many = objective_many

    if initial_point is None:
        initial_point = model.initial_point(derive_seed(seed, "init"))
    result = optimizer.minimize(
        objective, initial_point, bounds=model.bounds()
    )

    best_parameters = trace.best_parameters
    best_value = trace.best_value
    final_circuit = model.build_circuit(best_parameters)
    experiment = pipeline.execute(
        final_circuit, seed=derive_seed(seed, "final")
    )
    return TrainResult(
        best_parameters=np.asarray(best_parameters, dtype=float),
        best_value=float(best_value),
        trace=trace,
        evaluations=result.nfev,
        circuit_duration=experiment.duration,
        mixer_duration=model.mixer_duration(pipeline.backend.target),
        budget=result.budget,
    )
