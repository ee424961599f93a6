"""Fig.-6-style comparison: optimized gate vs optimized hybrid per task.

Runs the paper's three Max-Cut benchmarks (3-regular-6, Erdos-Renyi-6,
3-regular-8) through the optimized pipelines (Step II gate optimization +
Step III M3; the hybrid model also gets the Step-I compressed mixer) on a
single backend.  Uses reduced iteration counts so it finishes in a few
minutes; the full Fig. 6 reproduction lives in
``python -m repro.experiments fig6``.

Every evaluation here scores one circuit, so it runs in this process;
worker processes (``jobs=N``) only take multi-circuit batches, such as
the Step-I duration search's.

Run:  python examples/three_tasks_comparison.py
"""

from repro.backends import FakeToronto
from repro.core import GateLevelModel, HybridGatePulseModel, HybridWorkflow
from repro.problems import MaxCutProblem, benchmark_graph
from repro.vqa.optimizers import COBYLA

TASK_NAMES = {
    1: "3-regular 6 nodes",
    2: "Erdos-Renyi 6 nodes",
    3: "3-regular 8 nodes",
}


def main() -> None:
    backend = FakeToronto()
    print(f"backend: {backend}\n")
    print(f"{'task':<22} | {'gate AR':>8} | {'hybrid AR':>9} | {'gain':>6}")
    print("-" * 56)
    for task in (1, 2, 3):
        problem = MaxCutProblem(benchmark_graph(task))

        gate_workflow = HybridWorkflow(
            problem,
            backend,
            GateLevelModel(problem),
            optimizer_factory=lambda: COBYLA(maxiter=20),
            shots=1024,
            seed=100 + task,
        )
        gate_ar = gate_workflow.run_stage("m3").approximation_ratio

        hybrid = HybridGatePulseModel(
            problem, backend.device, mixer_duration=128
        )
        hybrid_workflow = HybridWorkflow(
            problem,
            backend,
            hybrid,
            optimizer_factory=lambda: COBYLA(maxiter=20),
            shots=1024,
            seed=100 + task,
        )
        hybrid_ar = hybrid_workflow.run_stage("m3").approximation_ratio

        print(
            f"{TASK_NAMES[task]:<22} | {100 * gate_ar:7.1f}% | "
            f"{100 * hybrid_ar:8.1f}% | {100 * (hybrid_ar - gate_ar):+5.1f}"
        )
    print(
        "\n(paper Fig. 6 shows the hybrid model ahead on every task; the"
        "\nfull-budget reproduction is `python -m repro.experiments fig6`)"
    )


if __name__ == "__main__":
    main()
