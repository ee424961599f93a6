"""Quickstart: hybrid gate-pulse QAOA on a simulated IBM backend.

Builds the paper's task-1 Max-Cut problem, trains the gate-level baseline
and the hybrid gate-pulse model on the simulated ibmq_toronto, and prints
both approximation ratios.  Runtime: ~30 s.

``--jobs N`` splits the closing gamma sweep (one multi-circuit batch)
across N worker processes; training scores one circuit at a time and
runs inline.  Results are seed-identical to the single-process run.

Run:  python examples/quickstart.py [--jobs 4]
"""

import argparse

import numpy as np

from repro.backends import FakeToronto
from repro.core import (
    ExecutionPipeline,
    GateLevelModel,
    HybridGatePulseModel,
    train_model,
)
from repro.problems import MaxCutProblem, three_regular_6
from repro.vqa import ExpectedCutCost
from repro.vqa.optimizers import COBYLA


def sweep_demo(pipeline, model, result) -> None:
    """Score a gamma sweep around the trained optimum as one batch."""
    best = np.asarray(result.best_parameters, dtype=float)
    circuits = [
        model.build_circuit(np.concatenate([[gamma], best[1:]]))
        for gamma in np.linspace(best[0] - 0.3, best[0] + 0.3, 8)
    ]
    scored = pipeline.evaluate_many(circuits, seeds=list(range(8)))
    cuts = [value for value, _info in scored]
    print(
        f"\ngamma sweep around the optimum (jobs={pipeline.jobs}): "
        f"expected cut {min(cuts):.2f} .. {max(cuts):.2f} over 8 points"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the gamma sweep's batch (default 1)",
    )
    args = parser.parse_args()

    backend = FakeToronto()
    problem = MaxCutProblem(three_regular_6())
    print(f"problem: {problem}")
    print(f"backend: {backend}")

    pipeline = ExecutionPipeline(
        backend=backend,
        cost=ExpectedCutCost(problem),
        shots=1024,
        jobs=args.jobs,
    )
    optimizer = COBYLA(maxiter=25)

    gate_model = GateLevelModel(problem)
    gate_result = train_model(gate_model, pipeline, optimizer, seed=1)
    print(
        f"\ngate-level QAOA:       AR = "
        f"{problem.approximation_ratio(gate_result.best_value):.3f} "
        f"(mixer {gate_result.mixer_duration} dt, "
        f"circuit {gate_result.circuit_duration} dt)"
    )

    hybrid_model = HybridGatePulseModel(problem, backend.device)
    hybrid_result = train_model(hybrid_model, pipeline, optimizer, seed=1)
    print(
        f"hybrid gate-pulse QAOA: AR = "
        f"{problem.approximation_ratio(hybrid_result.best_value):.3f} "
        f"(mixer {hybrid_result.mixer_duration} dt, "
        f"circuit {hybrid_result.circuit_duration} dt)"
    )
    print(
        "\nthe hybrid model keeps the RZZ problem layer at gate level and"
        "\ntrains a native pulse mixer (amplitude, phase, frequency)."
    )

    sweep_demo(pipeline, hybrid_model, hybrid_result)
    backend.close_services()


if __name__ == "__main__":
    main()
