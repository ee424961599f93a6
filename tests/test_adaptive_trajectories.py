"""Adaptive trajectory allocation."""

import numpy as np
import pytest

from repro.backends import (
    FakeGuadalupe,
    execute_circuit,
    resolve_trajectory_request,
)
from repro.backends.engine import DEFAULT_TARGET_ERROR
from repro.circuits import QuantumCircuit
from repro.core import ExecutionPipeline
from repro.exceptions import BackendError, SimulatorError
from repro.experiments.__main__ import main as experiments_main
from repro.vqa.cost import ExpectedCutCost
from repro.problems import MaxCutProblem, benchmark_graph


def line_circuit(n, name="line"):
    qc = QuantumCircuit(n, n, name)
    qc.h(0)
    for i in range(n - 1):
        qc.cx(i, i + 1)
    for i in range(n):
        qc.measure(i, i)
    return qc


@pytest.fixture(scope="module")
def backend():
    return FakeGuadalupe()


class TestResolveTrajectoryRequest:
    def test_defaults(self):
        assert resolve_trajectory_request(None, None, 1024) == (128, None)
        assert resolve_trajectory_request(None, None, 5) == (5, None)
        assert resolve_trajectory_request(16, None, 1024) == (16, None)

    def test_auto_and_bare_target_error(self):
        assert resolve_trajectory_request("auto", None, 1024) == (
            None,
            DEFAULT_TARGET_ERROR,
        )
        assert resolve_trajectory_request("auto", 0.01, 1024) == (None, 0.01)
        assert resolve_trajectory_request(None, 0.05, 1024) == (None, 0.05)

    def test_rejections(self):
        with pytest.raises(BackendError, match="'auto'"):
            resolve_trajectory_request("adaptive", None, 1024)
        with pytest.raises(BackendError, match="target_error requires"):
            resolve_trajectory_request(32, 0.01, 1024)
        with pytest.raises(BackendError, match="target_error must be > 0"):
            resolve_trajectory_request("auto", 0.0, 1024)
        with pytest.raises(BackendError, match=">= 1"):
            resolve_trajectory_request(0, None, 1024)


class TestAdaptiveAllocation:
    def test_counts_byte_identical_to_fixed_run_at_resolved_count(
        self, backend
    ):
        qc = line_circuit(5)
        auto = execute_circuit(
            qc, backend.target, backend.noise_model, shots=2048, seed=4,
            method="trajectory", trajectories="auto", target_error=0.01,
        )
        resolved = auto.metadata["trajectories"]
        assert resolved > 32  # 0.01 needs more than one round here
        fixed = execute_circuit(
            qc, backend.target, backend.noise_model, shots=2048, seed=4,
            method="trajectory", trajectories=resolved,
        )
        assert dict(auto.counts) == dict(fixed.counts)
        assert auto.metadata["adaptive"] is True
        assert auto.metadata["adaptive_converged"] is True
        assert (
            auto.metadata["adaptive_achieved_error"] <= 0.01
        )

    def test_tighter_target_needs_more_trajectories(self, backend):
        qc = line_circuit(5)

        def resolved(target):
            return execute_circuit(
                qc, backend.target, backend.noise_model, shots=4096,
                seed=4, method="trajectory", trajectories="auto",
                target_error=target,
            ).metadata["trajectories"]

        assert resolved(0.01) > resolved(0.05)

    def test_deterministic_program_converges_immediately(self, backend):
        # no noise touches the state: zero variance across trajectories
        auto = execute_circuit(
            line_circuit(4), backend.target, None, shots=512, seed=2,
            method="trajectory", trajectories="auto",
        )
        assert auto.metadata["trajectories"] == 1
        assert auto.metadata["adaptive_rounds"] == 1
        assert auto.metadata["adaptive_achieved_error"] == 0.0
        assert sum(auto.counts.values()) == 512

    def test_trajectory_count_capped_by_shots(self, backend):
        auto = execute_circuit(
            line_circuit(4), backend.target, backend.noise_model,
            shots=10, seed=2, method="trajectory",
            trajectories="auto", target_error=1e-6,
        )
        assert auto.metadata["trajectories"] == 10
        assert auto.metadata["adaptive_converged"] is False

    def test_bad_batch_size_rejected_eagerly_for_every_method(
        self, backend
    ):
        for method in ("trajectory", "statevector", "density_matrix"):
            with pytest.raises(BackendError, match="trajectory_batch"):
                execute_circuit(
                    line_circuit(4), backend.target, backend.noise_model,
                    shots=64, seed=1, method=method,
                    trajectories="auto" if method == "trajectory" else None,
                    trajectory_batch=0,
                )

    def test_generator_seed_rejected(self, backend):
        with pytest.raises(SimulatorError, match="integer seed"):
            execute_circuit(
                line_circuit(4), backend.target, backend.noise_model,
                shots=64, seed=np.random.default_rng(0),
                method="trajectory", trajectories="auto",
            )

    def test_adaptive_knobs_validated_on_non_trajectory_methods(
        self, backend
    ):
        # like trajectories=N, the knobs are ignored off-path, but
        # malformed values still fail loudly
        result = execute_circuit(
            line_circuit(4), backend.target, backend.noise_model,
            shots=64, seed=1, trajectories="auto",
        )
        assert result.metadata["method"] == "density_matrix"
        with pytest.raises(BackendError, match="target_error requires"):
            execute_circuit(
                line_circuit(4), backend.target, backend.noise_model,
                shots=64, seed=1, trajectories=8, target_error=0.01,
            )


class TestAdaptiveThreading:
    def test_backend_run_and_service_roundtrip(self, backend):
        circuits = [line_circuit(5), line_circuit(4)]
        kwargs = dict(
            shots=1024, seed=9, method="trajectory", trajectories="auto",
            target_error=0.05,
        )
        reference = backend.run(circuits, **kwargs)
        try:
            pooled = backend.run(circuits, jobs=2, **kwargs)
        finally:
            backend.close_services()
        assert pooled.metadata["service"]["shards"] == 2
        for got, want in zip(pooled.experiments, reference.experiments):
            assert dict(got.counts) == dict(want.counts)
            assert got.metadata == want.metadata

    def test_pipeline_threads_target_error(self, backend):
        problem = MaxCutProblem(benchmark_graph(1))
        pipeline = ExecutionPipeline(
            backend=backend,
            cost=ExpectedCutCost(problem),
            shots=512,
            method="trajectory",
            trajectories="auto",
            target_error=0.05,
        )
        qc = line_circuit(problem.num_nodes)
        qc.name = "pipeline-auto"
        experiment = pipeline.execute(qc, seed=3)
        assert experiment.metadata["method"] == "trajectory"
        assert experiment.metadata["adaptive"] is True

    def test_cli_rejects_contradictory_flags(self):
        with pytest.raises(SystemExit):
            experiments_main(
                ["table1", "--trajectories", "3", "--target-error", "0.1"]
            )
        with pytest.raises(SystemExit):
            experiments_main(["table1", "--target-error", "-1"])
        with pytest.raises(SystemExit):
            experiments_main(["table1", "--trajectories", "sometimes"])
