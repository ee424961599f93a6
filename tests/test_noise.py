"""Tests for noise channels, readout errors and noise models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NoiseError
from repro.noise import (
    KrausChannel,
    NoiseModel,
    ReadoutError,
    amplitude_damping_channel,
    coherent_overrotation_channel,
    depolarizing_channel,
    pauli_channel,
    phase_damping_channel,
    thermal_relaxation_channel,
)


class TestKrausChannel:
    def test_completeness_enforced(self):
        with pytest.raises(NoiseError):
            KrausChannel([0.5 * np.eye(2)])

    def test_identity_detection(self):
        chan = KrausChannel([np.eye(2)])
        assert chan.is_identity()
        assert not depolarizing_channel(0.1).is_identity()

    def test_compose(self):
        a = amplitude_damping_channel(0.3)
        b = phase_damping_channel(0.2)
        combined = a.compose(b)
        assert combined.dim == 2
        # completeness survives composition (checked in constructor)

    def test_expand(self):
        a = depolarizing_channel(0.1)
        b = depolarizing_channel(0.2)
        two = a.expand(b)
        assert two.num_qubits == 2

    def test_average_gate_fidelity(self):
        ident = KrausChannel([np.eye(2)])
        assert ident.average_gate_fidelity() == pytest.approx(1.0)
        depol = depolarizing_channel(0.1)
        assert depol.average_gate_fidelity() < 1.0

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_depolarizing_fidelity_formula(self, p):
        chan = depolarizing_channel(p, 1)
        # depolarizing AGF = 1 - p/2 for a single qubit
        assert chan.average_gate_fidelity() == pytest.approx(
            1 - p / 2, abs=1e-9
        )


class TestChannelFactories:
    def test_pauli_channel(self):
        chan = pauli_channel({"X": 0.1, "Z": 0.05})
        assert len(chan.kraus_ops) == 3

    def test_pauli_channel_two_qubit_label(self):
        chan = pauli_channel({"XI": 0.1}, num_qubits=2)
        assert chan.num_qubits == 2

    def test_pauli_bad_probability(self):
        with pytest.raises(NoiseError):
            pauli_channel({"X": 1.5})

    def test_depolarizing_bounds(self):
        with pytest.raises(NoiseError):
            depolarizing_channel(-0.1)
        with pytest.raises(NoiseError):
            depolarizing_channel(1.1)

    def test_thermal_relaxation_zero_time_identity(self):
        chan = thermal_relaxation_channel(1e5, 1e5, 0.0)
        assert chan.is_identity()

    def test_thermal_relaxation_decays_excited(self):
        from repro.simulators import DensityMatrix, Statevector

        chan = thermal_relaxation_channel(100.0, 100.0, 100.0)
        rho = DensityMatrix(Statevector.from_label("1"))
        rho.apply_kraus(chan.kraus_ops, [0])
        p1 = rho.probabilities()[1]
        assert p1 == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_thermal_relaxation_dephases(self):
        from repro.simulators import DensityMatrix, Statevector

        chan = thermal_relaxation_channel(1e9, 100.0, 100.0)
        rho = DensityMatrix(Statevector.from_label("+"))
        rho.apply_kraus(chan.kraus_ops, [0])
        assert abs(rho.data[0, 1]) < 0.5

    def test_unphysical_t2_rejected(self):
        with pytest.raises(NoiseError):
            thermal_relaxation_channel(100.0, 300.0, 10.0)

    def test_coherent_overrotation(self):
        chan = coherent_overrotation_channel("Z", 0.1)
        assert len(chan.kraus_ops) == 1
        with pytest.raises(NoiseError):
            coherent_overrotation_channel("W", 0.1)


class TestReadoutError:
    def test_uniform(self):
        readout = ReadoutError.uniform(2, 0.05)
        p10, p01 = readout.flip_probabilities(0)
        assert p10 == pytest.approx(0.05)
        assert p01 == pytest.approx(0.05)

    def test_asymmetric(self):
        readout = ReadoutError.asymmetric(1, p01=0.06, p10=0.02)
        p10, p01 = readout.flip_probabilities(0)
        assert p10 == pytest.approx(0.02)
        assert p01 == pytest.approx(0.06)

    def test_apply_to_probabilities(self):
        readout = ReadoutError.uniform(1, 0.1)
        noisy = readout.apply_to_probabilities(np.array([1.0, 0.0]))
        np.testing.assert_allclose(noisy, [0.9, 0.1], atol=1e-12)

    def test_apply_preserves_total(self):
        readout = ReadoutError.uniform(3, 0.07)
        rng = np.random.default_rng(0)
        probs = rng.random(8)
        probs /= probs.sum()
        noisy = readout.apply_to_probabilities(probs)
        assert noisy.sum() == pytest.approx(1.0)

    def test_sample_counts_preserves_shots(self):
        readout = ReadoutError.uniform(2, 0.2)
        noisy = readout.sample_counts({"00": 50, "11": 50}, seed=1)
        assert sum(noisy.values()) == 100

    def test_assignment_matrix_product(self):
        # flip 0.1 on qubit 0 and 0.3 on qubit 1: bit q of an index
        # selects assignment_matrices[q]
        readout = ReadoutError(
            [[[0.9, 0.1], [0.1, 0.9]], [[0.7, 0.3], [0.3, 0.7]]]
        )
        matrix = readout.assignment_matrix(
            [0b00, 0b01, 0b10, 0b11], [0b00, 0b11]
        )
        np.testing.assert_allclose(
            matrix,
            [[0.63, 0.03], [0.07, 0.27], [0.27, 0.07], [0.03, 0.63]],
            atol=1e-12,
        )

    def test_subset(self):
        readout = ReadoutError.asymmetric(3, p01=0.06, p10=0.02)
        sub = readout.subset([2, 0])
        assert sub.num_qubits == 2

    def test_rate_bounds(self):
        with pytest.raises(NoiseError):
            ReadoutError.uniform(1, 0.7)

    def test_bad_matrix(self):
        with pytest.raises(NoiseError):
            ReadoutError([np.array([[0.9, 0.3], [0.2, 0.7]])])


class TestNoiseModel:
    def test_gate_error_lookup(self):
        model = NoiseModel(3)
        model.add_depolarizing_error("cx", 0.01, 2)
        model.add_depolarizing_error(
            "cx", 0.05, 2, qubits=[0, 1]
        )
        generic = model.gate_channels("cx", (1, 2))
        specific = model.gate_channels("cx", (0, 1))
        assert len(generic) == 1
        assert len(specific) == 2  # generic + pair-specific

    def test_relaxation_channel(self):
        model = NoiseModel(1)
        model.set_relaxation(1e5, 1e5, 2.0 / 9.0)
        chan = model.relaxation_channel(0, 160)
        assert chan is not None
        assert model.relaxation_channel(0, 0) is None

    def test_relaxation_disabled_by_default(self):
        model = NoiseModel(1)
        assert model.relaxation_channel(0, 160) is None
        assert not model.has_relaxation

    def test_readout_size_check(self):
        model = NoiseModel(2)
        with pytest.raises(NoiseError):
            model.set_readout_error(ReadoutError.uniform(3, 0.1))

    def test_pulse_gate_channel(self):
        model = NoiseModel(2)
        assert model.pulse_gate_channel(1, 320) is None
        model.pulse_error_per_dt_1q = 1e-6
        chan = model.pulse_gate_channel(1, 320)
        assert chan is not None
        assert chan.num_qubits == 1
        model.pulse_error_per_dt_2q = 1e-6
        assert model.pulse_gate_channel(2, 320).num_qubits == 2
