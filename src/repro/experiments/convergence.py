"""Convergence-speed comparison (paper §V-B text).

"our hybrid model outperforms the pulse-level model with a 2.1% higher
approximation ratio and 4x faster training time to reach convergence
[...] maximum iteration up to 200" — this driver records best-so-far
traces of the three model families on one backend and measures the
iteration counts needed to reach a common target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import (
    ExecutionPipeline,
    GateLevelModel,
    HybridGatePulseModel,
    PulseLevelModel,
    train_model,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import text_table
from repro.problems import MaxCutProblem, benchmark_graph
from repro.utils.rng import derive_seed
from repro.vqa import ExpectedCutCost
from repro.vqa.optimizers import COBYLA


@dataclass
class ConvergenceResult:
    best_so_far: dict[str, list[float]] = field(default_factory=dict)
    best_ar: dict[str, float] = field(default_factory=dict)
    iterations_to_target: dict[str, int | None] = field(default_factory=dict)
    target_ar: float = 0.0


def run(
    config: ExperimentConfig | None = None,
    backend_name: str = "toronto",
    task: int = 1,
) -> ConvergenceResult:
    config = config or ExperimentConfig()
    backend = config.backend(backend_name)
    problem = MaxCutProblem(benchmark_graph(task))
    maximum = problem.maximum_cut()
    pipeline = ExecutionPipeline(
        backend=backend,
        cost=ExpectedCutCost(problem),
        shots=config.shots,
        jobs=config.jobs,
        method=config.method,
    )
    models = {
        "gate": (GateLevelModel(problem), config.maxiter),
        "hybrid": (
            HybridGatePulseModel(problem, backend.device),
            config.maxiter,
        ),
        "pulse": (PulseLevelModel(problem, backend), config.pulse_maxiter),
    }
    result = ConvergenceResult()
    for name, (model, maxiter) in models.items():
        train = train_model(
            model,
            pipeline,
            COBYLA(maxiter=maxiter),
            seed=derive_seed(config.seed, "conv", name),
        )
        result.best_so_far[name] = [
            v / maximum for v in train.trace.best_so_far()
        ]
        result.best_ar[name] = train.best_value / maximum
    # common target: 99% of the *pulse* model's best, so every family can
    # in principle reach it
    result.target_ar = 0.99 * min(result.best_ar.values())
    for name, series in result.best_so_far.items():
        reached = None
        for idx, value in enumerate(series):
            if value >= result.target_ar:
                reached = idx + 1
                break
        result.iterations_to_target[name] = reached
    return result


def render(result: ConvergenceResult) -> str:
    rows = []
    for name in result.best_ar:
        rows.append(
            [
                name,
                f"{100 * result.best_ar[name]:.1f}%",
                len(result.best_so_far[name]),
                result.iterations_to_target[name] or "-",
            ]
        )
    table = text_table(
        ["Model", "Best AR", "Evaluations", f"Evals to AR>={100 * result.target_ar:.1f}%"],
        rows,
        title="Convergence comparison (paper: pulse ~4x slower than hybrid)",
    )
    # coarse trace rendering: every 10th point
    lines = [table, "", "best-so-far traces (every 10th evaluation):"]
    for name, series in result.best_so_far.items():
        points = " ".join(
            f"{100 * v:.0f}" for v in series[::10]
        )
        lines.append(f"  {name:>7}: {points}")
    return "\n".join(lines)
