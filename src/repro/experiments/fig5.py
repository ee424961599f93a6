"""Fig. 5: pulse-level vs hybrid model on ibmq_toronto, with Step-I
duration reduction.

Reproduces the three bars (pulse-level AR, hybrid AR, hybrid + pulse
optimization AR) and the mixer-duration panel (320 / 320 / 128 dt), plus
the convergence-speed comparison from the surrounding text (the pulse
model needs ~4x the iterations to converge).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import (
    HybridGatePulseModel,
    PulseLevelModel,
    ExecutionPipeline,
    binary_search_mixer_duration,
    train_model,
)
from repro.experiments.config import FIG5_PAPER, ExperimentConfig
from repro.experiments.reporting import ascii_bars, text_table
from repro.problems import MaxCutProblem, benchmark_graph
from repro.utils.rng import derive_seed
from repro.vqa import ExpectedCutCost
from repro.vqa.optimizers import COBYLA


@dataclass
class Fig5Result:
    pulse_ar: float
    hybrid_ar: float
    hybrid_po_ar: float
    pulse_duration: int
    hybrid_duration: int
    hybrid_po_duration: int
    pulse_iterations_to_converge: int | None
    hybrid_iterations_to_converge: int | None
    #: COBYLA evaluation budget of the pulse-level training
    pulse_budget: int | None


def run(
    config: ExperimentConfig | None = None,
    backend_name: str = "toronto",
    task: int = 1,
) -> Fig5Result:
    config = config or ExperimentConfig()
    backend = config.backend(backend_name)
    problem = MaxCutProblem(benchmark_graph(task))
    pipeline = ExecutionPipeline(
        backend=backend,
        cost=ExpectedCutCost(problem),
        shots=config.shots,
        jobs=config.jobs,
        method=config.method,
    )
    maximum = problem.maximum_cut()

    hybrid = HybridGatePulseModel(problem, backend.device)
    hybrid_train = train_model(
        hybrid,
        pipeline,
        COBYLA(maxiter=config.maxiter),
        seed=derive_seed(config.seed, "fig5", "hybrid"),
    )
    search = binary_search_mixer_duration(
        hybrid,
        pipeline,
        hybrid_train.best_parameters,
        seed=derive_seed(config.seed, "fig5", "po"),
    )
    po_ar = search.evaluations[search.duration] / maximum

    pulse = PulseLevelModel(problem, backend)
    pulse_train = train_model(
        pulse,
        pipeline,
        COBYLA(maxiter=config.pulse_maxiter),
        seed=derive_seed(config.seed, "fig5", "pulse"),
    )

    # convergence: iterations to reach 98% of each model's own best
    hybrid_iters = hybrid_train.trace.iterations_to_reach(
        0.98 * hybrid_train.best_value
    )
    pulse_iters = pulse_train.trace.iterations_to_reach(
        0.98 * pulse_train.best_value
    )
    return Fig5Result(
        pulse_ar=pulse_train.best_value / maximum,
        hybrid_ar=hybrid_train.best_value / maximum,
        hybrid_po_ar=po_ar,
        pulse_duration=pulse.mixer_duration(backend.target),
        hybrid_duration=hybrid.mixer_pulse_duration,
        hybrid_po_duration=search.duration,
        pulse_iterations_to_converge=pulse_iters,
        hybrid_iterations_to_converge=hybrid_iters,
        pulse_budget=pulse_train.budget,
    )


def render(result: Fig5Result) -> str:
    bars = ascii_bars(
        [
            "Pulse Level Model",
            "Hybrid Gate-Pulse Model",
            "Hybrid + Pulse-Level Opt.",
        ],
        [result.pulse_ar, result.hybrid_ar, result.hybrid_po_ar],
    )
    table = text_table(
        ["Series", "AR (measured)", "AR (paper)", "Mixer dur (measured)", "Mixer dur (paper)"],
        [
            [
                "pulse",
                f"{100 * result.pulse_ar:.1f}%",
                f"{FIG5_PAPER['pulse_ar']:.1f}%",
                f"{result.pulse_duration}dt",
                f"{FIG5_PAPER['pulse_duration']}dt",
            ],
            [
                "hybrid",
                f"{100 * result.hybrid_ar:.1f}%",
                f"{FIG5_PAPER['hybrid_ar']:.1f}%",
                f"{result.hybrid_duration}dt",
                f"{FIG5_PAPER['hybrid_duration']}dt",
            ],
            [
                "hybrid+PO",
                f"{100 * result.hybrid_po_ar:.1f}%",
                f"{FIG5_PAPER['hybrid_po_ar']:.1f}%",
                f"{result.hybrid_po_duration}dt",
                f"{FIG5_PAPER['hybrid_po_duration']}dt",
            ],
        ],
        title="Fig. 5: pulse-level vs hybrid model (ibmq_toronto, task 1)",
    )
    convergence = (
        f"iterations to 98% of own best: hybrid="
        f"{result.hybrid_iterations_to_converge}, pulse="
        f"{result.pulse_iterations_to_converge} "
        f"(paper: pulse needs ~{FIG5_PAPER['pulse_convergence_factor']:.0f}x)"
        f"\npulse-level COBYLA budget: {result.pulse_budget} evaluations"
    )
    return "\n\n".join([table, bars, convergence])


def shape_checks(result: Fig5Result) -> list[str]:
    problems = []
    if result.hybrid_ar <= result.pulse_ar:
        problems.append(
            f"hybrid {result.hybrid_ar:.3f} <= pulse {result.pulse_ar:.3f}"
        )
    if result.hybrid_po_duration > 0.6 * result.hybrid_duration:
        problems.append(
            f"PO duration {result.hybrid_po_duration} not a >=40% cut"
        )
    if abs(result.hybrid_po_ar - result.hybrid_ar) > 0.05:
        problems.append(
            f"PO changed AR too much: {result.hybrid_po_ar:.3f} vs "
            f"{result.hybrid_ar:.3f}"
        )
    return problems
