"""Tests for simulation-method dispatch and the trajectory back-end."""

import pytest

from repro.backends import (
    FakeGuadalupe,
    Target,
    execute_circuit,
    method_qubit_budget,
    select_method,
    set_method_qubit_budget,
)
from repro.circuits import QuantumCircuit
from repro.exceptions import BackendError, SimulatorError
from repro.noise import NoiseModel, ReadoutError
from repro.simulators.trajectory import split_shots
from repro.transpiler import CouplingMap


def line_circuit(n, measure=True):
    qc = QuantumCircuit(n, n)
    qc.h(0)
    for i in range(n - 1):
        qc.cx(i, i + 1)
    if measure:
        for i in range(n):
            qc.measure(i, i)
    return qc


def readout_only_noise(num_qubits):
    noise = NoiseModel(num_qubits)
    noise.set_readout_error(ReadoutError.uniform(num_qubits, 0.03))
    return noise


@pytest.fixture(scope="module")
def backend():
    return FakeGuadalupe()


class TestSelectMethod:
    def test_noiseless_picks_statevector(self, backend):
        qc = line_circuit(4)
        assert select_method(qc, backend.target, None) == "statevector"

    def test_readout_only_noise_picks_statevector(self, backend):
        # assignment error is classical post-processing: pure-state
        # simulation stays exact
        qc = line_circuit(4)
        noise = readout_only_noise(backend.num_qubits)
        assert select_method(qc, backend.target, noise) == "statevector"

    def test_small_noisy_picks_density_matrix(self, backend):
        qc = line_circuit(4)
        assert (
            select_method(qc, backend.target, backend.noise_model)
            == "density_matrix"
        )

    def test_large_noisy_picks_trajectory(self, backend):
        qc = line_circuit(16)
        assert (
            select_method(qc, backend.target, backend.noise_model)
            == "trajectory"
        )

    def test_explicit_method_respected(self, backend):
        qc = line_circuit(4)
        for method in ("density_matrix", "statevector", "trajectory"):
            assert (
                select_method(qc, backend.target, backend.noise_model, method)
                == method
            )

    def test_unknown_method_rejected(self, backend):
        # the error names the live registry, not a frozen list
        with pytest.raises(BackendError) as excinfo:
            select_method(
                line_circuit(2), backend.target, None, "tensor_network"
            )
        message = str(excinfo.value)
        assert "unknown simulation method" in message
        for name in ("auto", "density_matrix", "statevector",
                     "trajectory", "stabilizer"):
            assert name in message

    def test_resolved_method_lands_in_metadata(self, backend):
        result = backend.run(line_circuit(3), shots=32, seed=0)
        assert result.experiments[0].metadata["method"] == "density_matrix"
        result = backend.run(
            line_circuit(3), shots=32, seed=0, with_noise=False
        )
        assert result.experiments[0].metadata["method"] == "statevector"


class TestQubitBudgets:
    def test_density_error_names_method_and_escape_hatch(self, backend):
        qc = line_circuit(15)
        with pytest.raises(BackendError) as excinfo:
            execute_circuit(
                qc,
                backend.target,
                backend.noise_model,
                shots=1,
                method="density_matrix",
            )
        message = str(excinfo.value)
        assert "density_matrix" in message
        assert "trajectory" in message
        assert "statevector" in message
        assert "set_method_qubit_budget" in message

    def test_statevector_budget_enforced(self):
        target = Target(30, CouplingMap.from_line(30))
        qc = line_circuit(30)
        with pytest.raises(BackendError, match="statevector"):
            execute_circuit(qc, target, shots=1, method="statevector")

    def test_budget_is_configurable_and_resettable(self, backend):
        assert method_qubit_budget("density_matrix") == 14
        try:
            set_method_qubit_budget("density_matrix", 3)
            with pytest.raises(BackendError, match="3-qubit"):
                execute_circuit(
                    line_circuit(4),
                    backend.target,
                    backend.noise_model,
                    shots=1,
                    method="density_matrix",
                )
        finally:
            assert set_method_qubit_budget("density_matrix", None) == 14

    def test_budget_rejects_nonpositive(self):
        with pytest.raises(BackendError):
            set_method_qubit_budget("trajectory", 0)

    def test_budget_rejects_auto(self):
        with pytest.raises(BackendError):
            method_qubit_budget("auto")


class TestStatevectorMethod:
    def test_noiseless_counts_byte_identical_to_density(self, backend):
        qc = line_circuit(5)
        qc_rz = line_circuit(5)
        qc_rz.rz(0.3, 2)
        for circuit in (qc, qc_rz):
            sv = execute_circuit(
                circuit, backend.target, None, shots=2048, seed=11,
                method="statevector",
            )
            dm = execute_circuit(
                circuit, backend.target, None, shots=2048, seed=11,
                method="density_matrix",
            )
            assert dict(sv.counts) == dict(dm.counts)
            assert sv.duration == dm.duration
            assert sv.metadata["method"] == "statevector"
            assert dm.metadata["method"] == "density_matrix"

    def test_readout_only_noise_byte_identical_to_density(self, backend):
        qc = line_circuit(4)
        noise = readout_only_noise(backend.num_qubits)
        sv = execute_circuit(
            qc, backend.target, noise, shots=2048, seed=3,
            method="statevector",
        )
        dm = execute_circuit(
            qc, backend.target, noise, shots=2048, seed=3,
            method="density_matrix",
        )
        assert dict(sv.counts) == dict(dm.counts)

    def test_statevector_breaks_14_qubit_wall(self, backend):
        qc = line_circuit(16)
        result = execute_circuit(
            qc, backend.target, None, shots=128, seed=1
        )
        assert result.metadata["method"] == "statevector"
        assert sum(result.counts.values()) == 128


class TestTrajectoryMethod:
    def test_split_shots_partition(self):
        assert split_shots(10, 4) == [3, 3, 2, 2]
        assert split_shots(3, 8) == [1, 1, 1, 0, 0, 0, 0, 0]
        assert sum(split_shots(1024, 7)) == 1024
        with pytest.raises(SimulatorError):
            split_shots(8, 0)

    def test_counts_converge_to_density_distribution(self, backend):
        # fixed seeds: deterministic statistical check, not a flaky one
        qc = line_circuit(3)
        shots = 120_000
        dm = execute_circuit(
            qc, backend.target, backend.noise_model, shots=shots, seed=1,
            method="density_matrix",
        )
        traj = execute_circuit(
            qc, backend.target, backend.noise_model, shots=shots, seed=2,
            method="trajectory", trajectories=256,
        )
        p = {k: v / shots for k, v in dm.counts.items()}
        q = {k: v / shots for k, v in traj.counts.items()}
        tv = 0.5 * sum(
            abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q)
        )
        assert tv < 0.05, f"TV(trajectory, density) = {tv:.4f}"

    def test_total_shots_and_duration_preserved(self, backend):
        qc = line_circuit(4)
        dm = execute_circuit(
            qc, backend.target, backend.noise_model, shots=333, seed=4
        )
        traj = execute_circuit(
            qc, backend.target, backend.noise_model, shots=333, seed=4,
            method="trajectory", trajectories=10,
        )
        assert sum(traj.counts.values()) == 333
        assert traj.duration == dm.duration

    def test_breaks_14_qubit_wall_where_density_refuses(self, backend):
        qc = line_circuit(16)
        with pytest.raises(BackendError, match="density_matrix"):
            execute_circuit(
                qc, backend.target, backend.noise_model, shots=16,
                method="density_matrix",
            )
        result = execute_circuit(
            qc, backend.target, backend.noise_model, shots=64, seed=5,
            method="trajectory", trajectories=4,
        )
        assert sum(result.counts.values()) == 64
        assert result.metadata["method"] == "trajectory"

    def test_zero_trajectories_rejected(self, backend):
        with pytest.raises(BackendError, match="trajectories"):
            execute_circuit(
                line_circuit(3), backend.target, backend.noise_model,
                shots=16, method="trajectory", trajectories=0,
            )

class TestServiceIntegration:
    def test_sweepjob_threads_method_and_trajectories(self):
        # a pooled batch hands method and trajectory count to every
        # worker's run
        backend = FakeGuadalupe()
        try:
            result = backend.run(
                [line_circuit(3), line_circuit(4)], shots=64, seed=1,
                jobs=2, method="trajectory", trajectories=7,
            )
        finally:
            backend.close_services()
        assert result.metadata["service"]["shards"] == 2
        assert [
            (e.metadata["method"], e.metadata["trajectories"])
            for e in result.experiments
        ] == [("trajectory", 7)] * 2

    def test_jobs1_vs_jobsN_identical_for_trajectory(self):
        circuits = [line_circuit(10), line_circuit(6)]
        kwargs = dict(
            shots=256, seed=17, method="trajectory", trajectories=8
        )
        reference = FakeGuadalupe().run(circuits, **kwargs)
        backend = FakeGuadalupe()
        try:
            sharded = backend.run(circuits, jobs=2, **kwargs)
            # one circuit runs inline, whatever its method
            single = backend.run(circuits[:1], jobs=2, **kwargs)
        finally:
            backend.close_services()
        assert sharded.metadata["service"]["shards"] == 2
        assert "service" not in single.metadata
        for got, want in zip(sharded.experiments, reference.experiments):
            assert dict(got.counts) == dict(want.counts)
            assert got.metadata == want.metadata
        assert dict(single.experiments[0].counts) == dict(
            reference.experiments[0].counts
        )
