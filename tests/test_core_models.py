"""Tests for the gate / hybrid / pulse QAOA models and their training."""

import math

import numpy as np
import pytest

from repro.backends import FakeGuadalupe, FakeToronto, fake_backend_by_name
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
from repro.vqa.optimizers import COBYLA, SPSA


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

    def test_unchanged_cx_echoes_are_reused(self, backend, monkeypatch):
        """An edge whose clipped drive parameters did not move keeps its
        CX unitary: the gates equal a fresh model's at random points and
        after a one-parameter change, and only the moved edge solves its
        echo again."""
        from repro.pulsesim.calibration import CRCalibration

        task1 = MaxCutProblem(benchmark_graph(1))
        model = PulseLevelModel(task1, backend)
        echo = CRCalibration.echoed_unitary
        echoes = []

        def counted(self, *args, **kwargs):
            echoes.append(args)
            return echo(self, *args, **kwargs)

        monkeypatch.setattr(CRCalibration, "echoed_unitary", counted)

        def build(values):
            echoes.clear()
            circuit = model.build_circuit(values)
            solved = len(echoes)
            fresh = PulseLevelModel(task1, backend).build_circuit(values)
            pairs = [
                (got.operation, want.operation)
                for got, want in zip(circuit.instructions, fresh.instructions)
                if got.operation.name == "cx_pulse"
            ]
            assert len(pairs) == 2 * len(task1.edges)
            for got, want in pairs:
                assert np.array_equal(got.unitary, want.unitary)
                assert got.params == want.params
            return solved

        rng = np.random.default_rng(11)
        lows, highs = np.array(model.bounds()).T
        build(rng.uniform(lows, highs))  # calibrates the edges' pairs too
        for _ in range(3):
            values = rng.uniform(lows, highs)
            assert build(values) == len(task1.edges)
        assert build(values) == 0
        # edge 4's phase moves: its echo alone is solved again
        moved = values.copy()
        moved[4 * 4 + 2] += 0.3
        assert build(moved) == 1
        # an amp scale that moves but clips to the same drive reuses it
        moved[4 * 4 + 1] = 1.3
        assert build(moved) == 1
        moved[4 * 4 + 1] = 1.6
        assert build(moved) == 0


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

    # (model, train seed, SPSA seed, maxiter): trace values and best
    # parameters computed with the batched SPSA path, which scored each
    # perturbation pair through evaluate_many (at jobs=2, on the pool)
    SPSA_PINS = {
        ("gate", 23, 11, 3): (
            [4.375, 4.2265625, 4.359375, 4.5859375, 4.2734375, 4.3203125,
             4.2890625],
            [0.5687369964422763, 0.6368954990558906],
        ),
        ("gate", 5, 3, 3): (
            [4.28125, 4.171875, 4.25, 4.1953125, 4.0703125, 4.2265625,
             4.296875],
            [0.4498974389173608, 0.4179977739859818],
        ),
        ("gate", 2023, 7, 4): (
            [4.640625, 4.2265625, 4.515625, 4.8828125, 4.625, 4.3984375,
             4.8671875, 4.6796875, 4.390625],
            [1.4005566644582812, 0.8615296629081293],
        ),
        ("hybrid", 23, 11, 2): (
            [4.078125, 4.6171875, 4.140625, 4.140625, 4.203125],
            [0.8887261602684957, 0.20919847433490785, 5.961156265381273,
             0.1453061042110645],
        ),
        ("hybrid", 9, 5, 2): (
            [4.2890625, 4.3515625, 4.15625, 4.375, 4.546875],
            [0.44987999813118973, 0.0, 6.1156294576058,
             0.23743752573662782],
        ),
    }

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("pin", sorted(SPSA_PINS), ids=str)
    def test_spsa_trace_pinned_at_fixed_seed(self, pin, jobs):
        # SPSA scores its paired perturbations one objective call at a
        # time; evaluation n's shot seed is derive_seed(seed, "eval", n)
        # at any jobs, and a single circuit never reaches the pool
        name, seed, spsa_seed, maxiter = pin
        values, parameters = self.SPSA_PINS[pin]
        problem = MaxCutProblem(benchmark_graph(1))
        backend = FakeGuadalupe()
        model = (
            GateLevelModel(problem) if name == "gate"
            else HybridGatePulseModel(problem, backend.device)
        )
        pipeline = ExecutionPipeline(
            backend=backend, cost=ExpectedCutCost(problem), shots=128,
            jobs=jobs,
        )
        try:
            result = train_model(
                model, pipeline, SPSA(maxiter=maxiter, seed=spsa_seed),
                seed=seed,
            )
            assert backend._services == {}  # no pool was started
        finally:
            backend.close_services()
        assert result.trace.values == values
        assert result.evaluations == len(values)
        assert result.best_value == max(values)
        assert result.circuit_duration == 107984
        assert result.best_parameters.tolist() == parameters

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
