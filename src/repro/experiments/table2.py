"""Table II: gate vs hybrid across backends, stages and mixer durations.

For each backend in {auckland, toronto, guadalupe} and each model in
{gate, hybrid}, train through the four workflow stages (raw / GO / M3 /
CVaR) and, for the hybrid model, run the Step-I binary duration search
to produce the PO mixer-duration row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import (
    GateLevelModel,
    HybridGatePulseModel,
    HybridWorkflow,
)
from repro.experiments.config import (
    TABLE2_PAPER,
    TABLE2_PAPER_DURATIONS,
    ExperimentConfig,
)
from repro.experiments.reporting import text_table
from repro.problems import MaxCutProblem, benchmark_graph
from repro.utils.rng import derive_seed
from repro.vqa.optimizers import COBYLA

BACKENDS = ("auckland", "toronto", "guadalupe")
STAGES = ("raw", "go", "m3", "cvar")


@dataclass
class Table2Result:
    """AR per (backend, model, stage), in 0-1 units, plus durations."""

    ars: dict[tuple[str, str, str], float] = field(default_factory=dict)
    mixer_durations: dict[tuple[str, str], int] = field(default_factory=dict)
    po_durations: dict[str, int] = field(default_factory=dict)
    circuit_durations: dict[tuple[str, str], int] = field(default_factory=dict)


def run(
    config: ExperimentConfig | None = None, task: int = 1
) -> Table2Result:
    config = config or ExperimentConfig()
    problem = MaxCutProblem(benchmark_graph(task))
    result = Table2Result()
    for backend_name in BACKENDS:
        backend = config.backend(backend_name)
        models = {
            "gate": GateLevelModel(problem),
            "hybrid": HybridGatePulseModel(problem, backend.device),
        }
        for model_name, model in models.items():
            workflow = HybridWorkflow(
                problem,
                backend,
                model,
                optimizer_factory=lambda: COBYLA(maxiter=config.maxiter),
                shots=config.shots,
                cvar_alpha=config.cvar_alpha,
                seed=derive_seed(
                    config.seed, "table2", backend_name, model_name
                ),
                jobs=config.jobs,
                method=config.method,
            )
            stage_results = workflow.run_all(STAGES)
            for stage, stage_result in stage_results.items():
                result.ars[(backend_name, model_name, stage)] = (
                    stage_result.approximation_ratio
                )
            result.mixer_durations[(backend_name, model_name)] = (
                stage_results["raw"].mixer_duration
            )
            result.circuit_durations[(backend_name, model_name)] = (
                stage_results["raw"].circuit_duration
            )
            if model_name == "hybrid":
                search = workflow.pulse_optimization(
                    stage_results["raw"].train
                )
                result.po_durations[backend_name] = search.duration
    return result


def render(result: Table2Result) -> str:
    headers = ["Metric"]
    for backend in BACKENDS:
        headers.append(f"{backend} (gate)")
        headers.append(f"{backend} (hybrid)")
    stage_labels = {
        "raw": "Raw AR",
        "go": "GO AR",
        "m3": "M3 AR",
        "cvar": "CVaR AR",
    }
    rows = []
    for stage in STAGES:
        row = [stage_labels[stage]]
        for backend in BACKENDS:
            for model in ("gate", "hybrid"):
                measured = result.ars[(backend, model, stage)]
                paper = TABLE2_PAPER[backend][model][stage]
                row.append(f"{100 * measured:.1f}% ({paper:.1f}%)")
        rows.append(row)
    duration_row = ["Raw Mixer Duration"]
    po_row = ["PO Mixer Duration"]
    for backend in BACKENDS:
        for model in ("gate", "hybrid"):
            duration_row.append(
                f"{result.mixer_durations[(backend, model)]}dt "
                f"({TABLE2_PAPER_DURATIONS['raw_mixer']}dt)"
            )
            if model == "hybrid":
                po_row.append(
                    f"{result.po_durations[backend]}dt "
                    f"({TABLE2_PAPER_DURATIONS['po_mixer']}dt)"
                )
            else:
                po_row.append("-")
    rows.append(duration_row)
    rows.append(po_row)
    return text_table(
        headers,
        rows,
        title=(
            "TABLE II: hybrid gate-pulse vs gate-level QAOA, task 1 "
            "(measured (paper))"
        ),
    )


def shape_checks(result: Table2Result) -> list[str]:
    """The orderings the paper's Table II establishes; returns violations."""
    problems = []
    for backend in BACKENDS:
        for stage in STAGES:
            gate = result.ars[(backend, "gate", stage)]
            hybrid = result.ars[(backend, "hybrid", stage)]
            if hybrid <= gate:
                problems.append(
                    f"{backend}/{stage}: hybrid {hybrid:.3f} <= "
                    f"gate {gate:.3f}"
                )
        if result.po_durations.get(backend, 10**9) > 0.6 * (
            result.mixer_durations[(backend, "hybrid")]
        ):
            problems.append(
                f"{backend}: PO duration {result.po_durations[backend]} "
                f"not a >=40% reduction"
            )
    for backend in BACKENDS:
        for model in ("gate", "hybrid"):
            raw = result.ars[(backend, model, "raw")]
            cvar = result.ars[(backend, model, "cvar")]
            if cvar <= raw:
                problems.append(
                    f"{backend}/{model}: CVaR {cvar:.3f} <= raw {raw:.3f}"
                )
    return problems
