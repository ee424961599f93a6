"""Fig. 6: optimized gate vs optimized hybrid on all three tasks.

Both models get Step II (gate optimization) and Step III (M3); the hybrid
model additionally gets Step I (mixer-duration reduction) — i.e. the
paper's "optimized" configurations — on ibmq_toronto and ibmq_montreal
for tasks 1-3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import (
    GateLevelModel,
    HybridGatePulseModel,
    HybridWorkflow,
)
from repro.experiments.config import FIG6_PAPER, ExperimentConfig
from repro.experiments.reporting import ascii_bars, text_table
from repro.problems import MaxCutProblem, benchmark_graph
from repro.utils.rng import derive_seed
from repro.vqa.optimizers import COBYLA

BACKENDS = ("toronto", "montreal")
TASKS = (1, 2, 3)


@dataclass
class Fig6Result:
    """AR per (backend, task, model) plus the hybrid PO durations."""

    ars: dict[tuple[str, int, str], float] = field(default_factory=dict)
    po_durations: dict[tuple[str, int], int] = field(default_factory=dict)


def run(config: ExperimentConfig | None = None) -> Fig6Result:
    config = config or ExperimentConfig()
    result = Fig6Result()
    for backend_name in BACKENDS:
        backend = config.backend(backend_name)
        for task in TASKS:
            problem = MaxCutProblem(benchmark_graph(task))
            seed = derive_seed(config.seed, "fig6", backend_name, task)

            gate = GateLevelModel(problem)
            gate_workflow = HybridWorkflow(
                problem,
                backend,
                gate,
                optimizer_factory=lambda: COBYLA(maxiter=config.maxiter),
                shots=config.shots,
                seed=seed,
                jobs=config.jobs,
                method=config.method,
            )
            result.ars[(backend_name, task, "gate")] = (
                gate_workflow.run_stage("m3").approximation_ratio
            )

            hybrid = HybridGatePulseModel(problem, backend.device)
            hybrid_workflow = HybridWorkflow(
                problem,
                backend,
                hybrid,
                optimizer_factory=lambda: COBYLA(maxiter=config.maxiter),
                shots=config.shots,
                seed=seed,
                jobs=config.jobs,
                method=config.method,
            )
            # Step I on the raw-trained parameters, then the optimized
            # (GO + M3) stage with the compressed mixer
            raw_stage = hybrid_workflow.run_stage("raw")
            search = hybrid_workflow.pulse_optimization(raw_stage.train)
            hybrid.set_mixer_duration(search.duration)
            result.po_durations[(backend_name, task)] = search.duration
            result.ars[(backend_name, task, "hybrid")] = (
                hybrid_workflow.run_stage("m3").approximation_ratio
            )
    return result


def render(result: Fig6Result) -> str:
    rows = []
    for backend in BACKENDS:
        for task in TASKS:
            gate = result.ars[(backend, task, "gate")]
            hybrid = result.ars[(backend, task, "hybrid")]
            paper = FIG6_PAPER[(backend, task)]
            rows.append(
                [
                    backend,
                    f"task {task}",
                    f"{100 * gate:.1f}% ({paper['gate']:.1f}%)",
                    f"{100 * hybrid:.1f}% ({paper['hybrid']:.1f}%)",
                    f"{100 * (hybrid - gate):.1f} "
                    f"({paper['hybrid'] - paper['gate']:.1f})",
                    f"{result.po_durations[(backend, task)]}dt",
                ]
            )
    table = text_table(
        [
            "Backend",
            "Task",
            "Optimized gate (paper)",
            "Optimized hybrid (paper)",
            "Gain pts (paper)",
            "PO mixer",
        ],
        rows,
        title="Fig. 6: optimized gate vs optimized hybrid (measured (paper))",
    )
    labels = []
    values = []
    for backend in BACKENDS:
        for task in TASKS:
            for model in ("gate", "hybrid"):
                labels.append(f"{backend} t{task} {model}")
                values.append(result.ars[(backend, task, model)])
    return table + "\n\n" + ascii_bars(labels, values)


def shape_checks(result: Fig6Result) -> list[str]:
    problems = []
    for backend in BACKENDS:
        for task in TASKS:
            gate = result.ars[(backend, task, "gate")]
            hybrid = result.ars[(backend, task, "hybrid")]
            if hybrid <= gate:
                problems.append(
                    f"{backend}/task{task}: hybrid {hybrid:.3f} <= "
                    f"gate {gate:.3f}"
                )
    return problems
