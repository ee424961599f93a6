"""Tests for targets, results, the execution engine and fake backends."""

import numpy as np
import pytest

from repro.backends import (
    Counts,
    FakeAuckland,
    FakeGuadalupe,
    FakeMontreal,
    FakeToronto,
    SimulatedBackend,
    Target,
    execute_circuit,
    fake_backend_by_name,
)
from repro.backends.fake import SPECS
from repro.circuits import QuantumCircuit
from repro.exceptions import BackendError
from repro.transpiler import CouplingMap


def small_target(num_qubits=3):
    return Target(num_qubits, CouplingMap.from_line(num_qubits))


class TestTarget:
    def test_default_durations(self):
        target = small_target()
        assert target.duration("rz") == 0
        assert target.duration("sx") == 160
        assert target.duration("barrier") == 0

    def test_measure_duration_from_readout_length(self):
        target = small_target()
        expected = int(round(750.0 / target.dt))
        assert target.duration("measure", (0,)) == expected

    def test_unknown_gate(self):
        with pytest.raises(BackendError):
            small_target().duration("zz_gate")

    def test_coupling_size_check(self):
        with pytest.raises(BackendError):
            Target(5, CouplingMap.from_line(3))

    def test_duration_provider(self):
        provider = small_target().duration_provider()
        assert provider("cx", (0, 1)) == 1760


class TestCounts:
    def test_basics(self):
        counts = Counts({"00": 60, "11": 40})
        assert counts.shots == 100
        assert counts.most_frequent() == "00"
        assert counts.probabilities()["11"] == pytest.approx(0.4)
        assert counts.int_outcomes() == {0: 60, 3: 40}

    def test_marginal(self):
        counts = Counts({"01": 30, "11": 70})
        # keep clbit 0 only
        marg = counts.marginal([0])
        assert marg == {"1": 100}
        marg1 = counts.marginal([1])
        assert marg1 == {"0": 30, "1": 70}

    def test_empty_errors(self):
        with pytest.raises(BackendError):
            Counts({}).most_frequent()


class TestExecuteCircuit:
    def test_ideal_bell(self):
        target = small_target(2)
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        qc.measure_all()
        result = execute_circuit(qc, target, shots=4000, seed=0)
        probs = result.counts.probabilities()
        assert set(probs) == {"00", "11"}
        assert probs["00"] == pytest.approx(0.5, abs=0.05)

    def test_duration_accumulates(self):
        target = small_target(1)
        qc = QuantumCircuit(1)
        qc.sx(0)
        qc.sx(0)
        qc.measure_all()
        result = execute_circuit(qc, target, shots=1, seed=0)
        assert result.duration == 320 + target.duration("measure", (0,))

    def test_parallel_gates_share_a_moment(self):
        target = small_target(2)
        qc = QuantumCircuit(2)
        qc.sx(0)
        qc.sx(1)
        qc.measure_all()
        result = execute_circuit(qc, target, shots=1, seed=0)
        assert result.duration == 160 + target.duration("measure", (0,))

    def test_subset_of_device(self):
        # a 2-qubit circuit on a 27-qubit device must not blow up
        backend = FakeToronto()
        qc = QuantumCircuit(27)
        qc.h(0)
        qc.cx(0, 1)
        qc.num_clbits = 2
        qc.measure(0, 0)
        qc.measure(1, 1)
        result = backend.run(qc, shots=100, seed=1)
        assert sum(result.get_counts().values()) == 100
        assert result.experiments[0].metadata["active_qubits"] == [0, 1]

    def test_too_many_active_qubits_for_density_matrix(self):
        target = Target(20, CouplingMap.from_line(20))
        qc = QuantumCircuit(20)
        for q in range(20):
            qc.h(q)
        qc.measure_all()
        with pytest.raises(BackendError, match="density_matrix"):
            execute_circuit(qc, target, shots=1, method="density_matrix")
        # the auto policy routes the noiseless 20-qubit circuit to the
        # statevector back-end instead of hitting the 4^n wall
        result = execute_circuit(qc, target, shots=1, seed=0)
        assert result.metadata["method"] == "statevector"

    def test_double_measure_rejected(self):
        target = small_target(1)
        qc = QuantumCircuit(1, 2)
        qc.measure(0, 0)
        qc.measure(0, 1)
        with pytest.raises(BackendError):
            execute_circuit(qc, target, shots=1)

    def test_seed_reproducibility(self):
        backend = FakeToronto()
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        qc.measure_all()
        counts_a = backend.run(qc, shots=500, seed=9).get_counts()
        counts_b = backend.run(qc, shots=500, seed=9).get_counts()
        assert counts_a == counts_b

    def test_noise_changes_distribution(self):
        backend = FakeToronto()
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        qc.measure_all()
        noisy = backend.run(qc, shots=5000, seed=3).get_counts()
        ideal = backend.run(
            qc, shots=5000, seed=3, with_noise=False
        ).get_counts()
        assert set(ideal) == {"00", "11"}
        # noise populates the odd-parity strings
        assert any(key in noisy for key in ("01", "10"))

    def test_single_circuit_at_jobs_2_is_planned_once(self, monkeypatch):
        from repro.backends import engine

        plans = []

        class CountingPlan(engine._CircuitPlan):
            __slots__ = ()

            def __init__(self, circuit, target):
                plans.append(circuit)
                super().__init__(circuit, target)

        backend = FakeToronto()
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).cx(1, 2)
        qc.measure_all()
        reference = backend.run(qc, shots=256, seed=4).experiments[0]
        monkeypatch.setattr(engine, "_CircuitPlan", CountingPlan)
        # a density-matrix circuit is not pooled: the plan that decides
        # so is the one it runs on
        experiment = backend.run(qc, shots=256, seed=4, jobs=2).experiments[0]
        assert len(plans) == 1
        assert experiment.metadata["method"] == "density_matrix"
        assert experiment.counts == reference.counts
        assert experiment.metadata == reference.metadata

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("seeds", [[1, 2], []])
    def test_one_seed_per_circuit_at_any_jobs(self, jobs, seeds):
        backend = FakeToronto()
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        qc.measure_all()
        with pytest.raises(BackendError, match="seeds for 1 circuits"):
            backend.run(qc, shots=16, seeds=seeds, jobs=jobs)

    def test_clbit_mapping_metadata(self):
        backend = FakeToronto()
        qc = QuantumCircuit(3, 2)
        qc.h(0)
        qc.measure(0, 1)
        qc.measure(2, 0)
        experiment = backend.run(qc, shots=10, seed=0).experiments[0]
        assert experiment.metadata["clbit_to_qubit"] == {1: 0, 0: 2}


class TestFakeBackends:
    @pytest.mark.parametrize(
        "factory,name",
        [
            (FakeAuckland, "ibm_auckland"),
            (FakeToronto, "ibmq_toronto"),
            (FakeGuadalupe, "ibmq_guadalupe"),
            (FakeMontreal, "ibmq_montreal"),
        ],
    )
    def test_construction(self, factory, name):
        backend = factory()
        assert backend.name == name
        assert backend.coupling.is_connected()
        assert backend.noise_model is not None
        assert backend.device.num_qubits == backend.num_qubits

    def test_table1_values_survive(self):
        for key, spec in SPECS.items():
            backend = fake_backend_by_name(key)
            row = backend.properties_row()
            assert row["pauli_x_error"] == pytest.approx(spec.pauli_x_error)
            assert row["cnot_error"] == pytest.approx(spec.cnot_error)
            assert row["t1_us"] == pytest.approx(spec.t1_us)
            assert row["readout_length_ns"] == pytest.approx(
                spec.readout_length_ns
            )

    def test_by_name_variants(self):
        assert fake_backend_by_name("ibmq_toronto").name == "ibmq_toronto"
        assert fake_backend_by_name("TORONTO").name == "ibmq_toronto"
        with pytest.raises(KeyError):
            fake_backend_by_name("ibmq_nowhere")

    def test_coupled_pairs_detuned(self):
        # frequency allocation must never give coupled qubits equal freqs
        for key in SPECS:
            device = fake_backend_by_name(key).device
            for i, j in device.coupled_pairs():
                assert (
                    abs(device.qubits[i].frequency - device.qubits[j].frequency)
                    > 0.01
                )

    def test_guadalupe_is_16q(self):
        assert FakeGuadalupe().num_qubits == 16

    def test_readout_asymmetry(self):
        backend = FakeToronto()
        p10, p01 = backend.noise_model.readout_error.flip_probabilities(0)
        assert p01 > p10  # 1->0 decay-flavoured asymmetry

    def test_pulse_unitary_for_mixer_gate(self):
        from repro.core.models import HybridGatePulseModel
        from repro.problems import MaxCutProblem, three_regular_6
        from repro.utils.linalg import is_unitary

        backend = FakeToronto()
        model = HybridGatePulseModel(
            MaxCutProblem(three_regular_6()), backend.device
        )
        gate = model._mixer_pulse_gate(0.4, 0.3, 0.1)
        unitary = backend.pulse_unitary(gate, (5,))
        assert unitary.shape == (2, 2)
        assert is_unitary(unitary)
