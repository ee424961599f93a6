"""Tests for the gate / hybrid / pulse QAOA models and their training."""

import math

import numpy as np
import pytest

from repro.backends import FakeToronto, fake_backend_by_name
from repro.core import (
    ExecutionPipeline,
    GateLevelModel,
    HybridGatePulseModel,
    PulseLevelModel,
    train_model,
)
from repro.core.models import FREQ_UNIT
from repro.exceptions import ProblemError
from repro.problems import MaxCutProblem, benchmark_graph, three_regular_6
from repro.vqa import CVaRCost, ExpectedCutCost
from repro.vqa.optimizers import COBYLA


@pytest.fixture(scope="module")
def backend():
    return FakeToronto()


@pytest.fixture(scope="module")
def problem():
    return MaxCutProblem(three_regular_6())


class TestGateLevelModel:
    def test_parameter_layout(self, problem):
        model = GateLevelModel(problem, p=2)
        assert model.num_parameters == 4
        assert len(model.bounds()) == 4

    def test_build_circuit(self, problem):
        model = GateLevelModel(problem)
        circuit = model.build_circuit([0.5, 0.3])
        ops = circuit.count_ops()
        assert ops["rzz"] == 9
        assert ops["rx"] == 6
        assert ops["measure"] == 6

    def test_wrong_parameter_count(self, problem):
        model = GateLevelModel(problem)
        with pytest.raises(ProblemError):
            model.build_circuit([0.5])

    def test_mixer_duration_is_two_sx(self, problem, backend):
        model = GateLevelModel(problem)
        assert model.mixer_duration(backend.target) == 320


class TestHybridModel:
    def test_parameter_layout_shared(self, problem, backend):
        model = HybridGatePulseModel(problem, backend.device)
        # gamma + (amp, phase, freq)
        assert model.num_parameters == 4

    def test_parameter_layout_per_qubit(self, problem, backend):
        model = HybridGatePulseModel(
            problem, backend.device, share_mixer_params=False
        )
        assert model.num_parameters == 1 + 3 * 6

    def test_bounds_match_paper(self, problem, backend):
        model = HybridGatePulseModel(problem, backend.device)
        bounds = model.bounds()
        assert bounds[1] == (0.0, 1.0)  # |amp| <= 1
        assert bounds[2] == (0.0, 2 * math.pi)  # phase in [0, 2 pi)
        assert bounds[3] == (-1.0, 1.0)  # +-100 MHz in scaled units
        assert FREQ_UNIT == pytest.approx(0.1)

    def test_build_circuit_has_pulse_mixer(self, problem, backend):
        model = HybridGatePulseModel(problem, backend.device)
        circuit = model.build_circuit(model.initial_point(0))
        ops = circuit.count_ops()
        assert ops["rzz"] == 9  # gate-level Hamiltonian layer intact
        assert ops["mixer_pulse"] == 6
        assert "rx" not in ops

    def test_duration_granularity(self, problem, backend):
        with pytest.raises(ProblemError):
            HybridGatePulseModel(
                problem, backend.device, mixer_duration=100
            )

    def test_max_rotation_scales_with_duration(self, problem, backend):
        model = HybridGatePulseModel(problem, backend.device)
        assert model.max_mixer_rotation(320) > model.max_mixer_rotation(128)
        assert model.max_mixer_rotation(128) > math.pi
        assert model.max_mixer_rotation(96) < math.pi

    def test_amp_for_rotation_roundtrip(self, problem, backend):
        model = HybridGatePulseModel(problem, backend.device)
        amp = model.amp_for_rotation(1.5)
        assert amp * model.max_mixer_rotation() == pytest.approx(1.5)
        with pytest.raises(ProblemError):
            model.amp_for_rotation(100.0)

    def test_rescaled_parameters_preserve_angle(self, problem, backend):
        model = HybridGatePulseModel(problem, backend.device)
        values = np.array([0.8, 0.3, 1.2, 0.05])
        rescaled = model.rescaled_parameters(values, 160)
        angle_before = values[1] * model.max_mixer_rotation(320)
        angle_after = rescaled[1] * model.max_mixer_rotation(160)
        assert angle_before == pytest.approx(angle_after)
        # gamma, phase, freq untouched
        assert rescaled[0] == values[0]
        assert rescaled[3] == values[3]

    def test_rescaled_parameters_reflect_large_angles(self, problem, backend):
        model = HybridGatePulseModel(problem, backend.device)
        # pick an amplitude whose rotation (mod 2 pi) lies in (pi, 2 pi)
        big_amp = 4.5 / model.max_mixer_rotation(320)
        values = np.array([0.5, big_amp, 0.0, 0.0])
        rescaled = model.rescaled_parameters(values, 320)
        angle = rescaled[1] * model.max_mixer_rotation(320)
        assert angle == pytest.approx(2 * math.pi - 4.5)
        assert angle <= math.pi + 1e-9
        assert rescaled[2] == pytest.approx(math.pi)  # phase flipped

    def test_rescale_infeasible_raises(self, problem, backend):
        model = HybridGatePulseModel(problem, backend.device)
        values = np.array([0.5, 0.38, 0.0, 0.0])  # ~pi rotation
        with pytest.raises(ProblemError):
            model.rescaled_parameters(values, 32)

    def test_mixer_unitary_is_rotation(self, problem, backend):
        """The pulse mixer at phase 0, no shift, approximates RX."""
        from repro.utils.linalg import process_fidelity

        model = HybridGatePulseModel(problem, backend.device)
        angle = 1.2
        gate = model._mixer_pulse_gate(
            model.amp_for_rotation(angle), 0.0, 0.0
        )
        unitary = backend.pulse_unitary(gate, (0,))
        target = np.array(
            [
                [math.cos(angle / 2), -1j * math.sin(angle / 2)],
                [-1j * math.sin(angle / 2), math.cos(angle / 2)],
            ]
        )
        assert process_fidelity(unitary, target) > 0.99


class TestPulseLevelModel:
    def test_parameter_count(self, problem, backend):
        model = PulseLevelModel(problem, backend)
        # 9 edges x 4 + 6 qubits x 3
        assert model.num_parameters == 36 + 18

    def test_build_circuit_structure(self, problem, backend):
        model = PulseLevelModel(problem, backend)
        circuit = model.build_circuit(model.initial_point(0))
        ops = circuit.count_ops()
        assert ops["cx_pulse"] == 18  # two CX pulses per edge
        assert ops["mixer_pulse"] == 6
        assert "rzz" not in ops  # the protected RZZ structure is gone
        assert "cx" not in ops  # no calibrated gates in the H layer

    def test_cx_pulse_is_unitary_with_duration(self, problem, backend):
        from repro.utils.linalg import is_unitary

        model = PulseLevelModel(problem, backend)
        gate = model._cx_pulse_gate(0, 1, 0.9, 0.1, 0.05)
        assert is_unitary(gate.unitary)
        assert gate.duration > 0

    def test_calibration_point_is_cx(self, problem, backend):
        from repro.utils.linalg import process_fidelity

        model = PulseLevelModel(problem, backend)
        gate = model._cx_pulse_gate(0, 1, 1.0, 0.0, 0.0)
        cx = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
            dtype=complex,
        )
        assert process_fidelity(gate.unitary, cx) > 0.9

    def test_detuned_pulse_degrades_cx(self, problem, backend):
        from repro.utils.linalg import process_fidelity

        model = PulseLevelModel(problem, backend)
        cx = np.array(
            [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
            dtype=complex,
        )
        at_cal = model._cx_pulse_gate(0, 1, 1.0, 0.0, 0.0)
        detuned = model._cx_pulse_gate(0, 1, 1.0, 0.0, 0.5)  # +50 MHz
        assert process_fidelity(detuned.unitary, cx) < process_fidelity(
            at_cal.unitary, cx
        )


    def test_cx_ingredients_calibrated_once_per_physical_pair(
        self, monkeypatch
    ):
        from repro.pulsesim import calibration

        # a fresh backend: the module fixture's device memo outlives a
        # test, and a warm one would solve nothing
        backend = FakeToronto()
        task1 = MaxCutProblem(benchmark_graph(1))
        solve = calibration.virtual_z_corrected
        solves = []

        def counted(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(calibration, "virtual_z_corrected", counted)
        calibrate = calibration._calibrate_cr
        calibrations = []

        def counted_calibration(*args, **kwargs):
            calibrations.append(args[1:3])
            return calibrate(*args, **kwargs)

        monkeypatch.setattr(calibration, "_calibrate_cr", counted_calibration)
        model = PulseLevelModel(task1, backend)
        circuit = model.build_circuit(model.initial_point(0))
        pairs = {model._physical_pair(a, b) for a, b, _w in task1.edges}
        assert len(task1.edges) == 9
        assert len(pairs) == 4
        # the four pairs fall in two physics classes: the control 0.08 GHz
        # below or above its target
        detunings = {
            round(backend.device.qubits[c].frequency
                  - backend.device.qubits[t].frequency, 9)
            for c, t in pairs
        }
        assert len(detunings) == 2
        assert len(solves) == 2
        assert len(calibrations) == 2
        # an edge's gate equals the one a model that never calibrated
        # another edge builds
        for inst in circuit.instructions:
            op = inst.operation
            if op.name == "cx_pulse":
                fresh = PulseLevelModel(task1, backend)
                gate = fresh._cx_pulse_gate(*inst.qubits, *op.params)
                assert np.array_equal(op.unitary, gate.unitary)


@pytest.mark.parametrize(
    "name", ["auckland", "guadalupe", "montreal", "toronto"]
)
def test_virtual_z_memo_equals_uncached_solve_on_every_pair(name):
    from repro.circuits import standard_gate
    from repro.pulsesim.calibration import _rz_diag, virtual_z_corrected
    from repro.utils.cache import caching_disabled

    backend = fake_backend_by_name(name)
    device = backend.device
    model = PulseLevelModel(MaxCutProblem(benchmark_graph(1)), backend)
    rzx = standard_gate("rzx", [math.pi / 2]).matrix()
    for i, j in device.coupled_pairs():
        for control, target in ((i, j), (j, i)):
            calibration, _local, pre, post, _duration = model._edge_base(
                control, target
            )
            assert (calibration.control, calibration.target) == (
                control,
                target,
            )
            echo = calibration.echoed_unitary(
                device, calibration.width_pi_2, phase=math.pi
            )
            with caching_disabled():
                _corrected, _fid, angles = virtual_z_corrected(echo, rzx)
            assert np.array_equal(
                pre, np.kron(_rz_diag(angles[3]), _rz_diag(angles[2]))
            )
            assert np.array_equal(
                post, np.kron(_rz_diag(angles[1]), _rz_diag(angles[0]))
            )


class TestTraining:
    def test_short_training_improves(self, problem, backend):
        pipeline = ExecutionPipeline(
            backend=backend,
            cost=ExpectedCutCost(problem),
            shots=512,
        )
        model = GateLevelModel(problem)
        result = train_model(
            model, pipeline, COBYLA(maxiter=12), seed=5
        )
        first = result.trace.values[0]
        assert result.best_value >= first
        assert result.mixer_duration == 320
        assert result.circuit_duration > 0

    def test_deterministic_given_seed(self, problem, backend):
        pipeline = ExecutionPipeline(
            backend=backend, cost=ExpectedCutCost(problem), shots=256
        )
        model = GateLevelModel(problem)
        a = train_model(model, pipeline, COBYLA(maxiter=5), seed=3)
        b = train_model(model, pipeline, COBYLA(maxiter=5), seed=3)
        assert a.best_value == pytest.approx(b.best_value)
        np.testing.assert_allclose(a.best_parameters, b.best_parameters)

    def test_m3_pipeline_runs(self, problem, backend):
        pipeline = ExecutionPipeline(
            backend=backend,
            cost=ExpectedCutCost(problem),
            shots=256,
            gate_optimization=True,
            use_m3=True,
        )
        model = GateLevelModel(problem)
        value, info = pipeline.evaluate(
            model.build_circuit([0.7, 0.4]), seed=2
        )
        assert "mitigated" in info
        assert 0 <= value <= 9

    def test_cvar_cost_pipeline(self, problem, backend):
        pipeline_raw = ExecutionPipeline(
            backend=backend, cost=ExpectedCutCost(problem), shots=1024
        )
        pipeline_cvar = ExecutionPipeline(
            backend=backend,
            cost=CVaRCost(problem, 0.3),
            shots=1024,
        )
        circuit = GateLevelModel(problem).build_circuit([0.7, 0.4])
        raw, _ = pipeline_raw.evaluate(circuit, seed=4)
        cvar, _ = pipeline_cvar.evaluate(circuit, seed=4)
        assert cvar >= raw  # CVaR of the best 30% dominates the mean

    def test_pulse_efficient_pipeline(self, problem, backend):
        pipeline = ExecutionPipeline(
            backend=backend,
            cost=ExpectedCutCost(problem),
            shots=256,
            pulse_efficient=True,
        )
        circuit = GateLevelModel(problem).build_circuit([0.7, 0.4])
        prepared = pipeline.prepare(circuit)
        ops = prepared.count_ops()
        assert ops.get("rzx_pulse", 0) >= 1  # RZZ lowered onto scaled CR
        value, _ = pipeline.evaluate(circuit, seed=1)
        assert 0 <= value <= 9

    def test_layout_too_small(self, backend):
        from repro.problems import three_regular_8

        problem8 = MaxCutProblem(three_regular_8())
        pipeline = ExecutionPipeline(
            backend=backend,
            cost=ExpectedCutCost(problem8),
            layout=[0, 1, 2],
        )
        from repro.exceptions import BackendError

        with pytest.raises(BackendError):
            pipeline.prepare(
                GateLevelModel(problem8).build_circuit([0.5, 0.5])
            )
