"""Physics validation of the pulse simulator and calibration routines."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.hamiltonian import DeviceModel, TransmonQubit
from repro.pulse import (
    Constant,
    ControlChannel,
    Delay,
    Drag,
    DriveChannel,
    Gaussian,
    GaussianSquare,
    Play,
    Schedule,
    SetFrequency,
    ShiftFrequency,
    ShiftPhase,
)
from repro.pulsesim import (
    calibrate_cr,
    calibrate_rotation,
    calibrate_sx,
    calibrate_x,
    cr_pair_propagator,
    cx_unitary_from_cr,
    dense_schedule_propagator,
    drive_channel_propagator,
    schedule_drive_unitaries,
    su2_propagator,
)
from repro.pulsesim.calibration import virtual_z_corrected
from repro.utils.linalg import is_unitary, process_fidelity

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
CX_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)


def rx(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def single_qubit_device(**kwargs):
    return DeviceModel([TransmonQubit(**kwargs)])


def coupled_pair_device(j=0.005, step=0.08):
    return DeviceModel(
        [
            TransmonQubit(frequency=5.0),
            TransmonQubit(frequency=5.0 + step),
        ],
        couplings=[(0, 1, j)],
    )


# ---------------------------------------------------------------------------
# Reference loops.  The propagators build and exponentiate all samples (or
# segments) of a pulse at once; these per-sample loops are what they must
# reproduce to the last bit, so they are compared with ``==``.
# ---------------------------------------------------------------------------

def reference_su2(hx, hy, hz, time):
    """Scalar closed form of exp(-i time (hx X + hy Y + hz Z))."""
    norm = math.sqrt(hx * hx + hy * hy + hz * hz)
    theta = norm * time
    if norm < 1e-300:
        return np.eye(2, dtype=complex)
    c = math.cos(theta)
    s = math.sin(theta) / norm
    return np.array(
        [
            [c - 1j * s * hz, -s * (hy + 1j * hx)],
            [s * (hy - 1j * hx), c + 1j * s * hz],
        ],
        dtype=complex,
    )


def reference_drive(timeline, device, qubit, include_stark):
    """One SU(2) step per sample, each multiplied on from the left."""
    params = device.qubits[qubit]
    g = 2 * math.pi * params.drive_strength
    dt = device.dt
    phase = freq_shift = 0.0
    unitary = np.eye(2, dtype=complex)
    for start, instruction in timeline:
        if isinstance(instruction, ShiftPhase):
            phase += float(instruction.phase)
        elif isinstance(instruction, ShiftFrequency):
            freq_shift += 2 * math.pi * float(instruction.frequency)
        elif isinstance(instruction, SetFrequency):
            freq_shift = (
                2 * math.pi * float(instruction.frequency) - params.omega
            )
        elif isinstance(instruction, Play):
            samples = instruction.waveform.samples()
            times = (start + np.arange(len(samples)) + 0.5) * dt
            rotated = samples * np.exp(1j * (phase + freq_shift * times))
            rabi = g * rotated
            if include_stark:
                stark = (g * np.abs(samples)) ** 2 / (2 * params.alpha)
            else:
                stark = np.zeros(len(samples))
            for k in range(len(samples)):
                hx = 0.5 * rabi[k].real
                hy = 0.5 * rabi[k].imag
                hz = -0.5 * stark[k]
                unitary = reference_su2(hx, hy, hz, dt) @ unitary
    return unitary


def reference_cr_hamiltonian(
    rabi_x, rabi_y, delta_c, delta_t, coupling, stark_c
):
    eye = np.eye(2, dtype=complex)
    return (
        +(delta_c + stark_c) / 2 * np.kron(eye, Z)
        + delta_t / 2 * np.kron(Z, eye)
        + coupling / 2 * (np.kron(X, X) + np.kron(Y, Y))
        + rabi_x / 2 * np.kron(eye, X)
        + rabi_y / 2 * np.kron(eye, Y)
    )


def reference_expm_hermitian(matrix, time):
    eigvals, eigvecs = np.linalg.eigh(matrix)
    phases = np.exp(-1j * time * eigvals)
    return (eigvecs * phases) @ eigvecs.conj().T


def reference_cr(
    samples, device, control, target, phase, freq_shift, include_stark
):
    """One eigensolve per segment, a run of samples within 1e-12 of the
    run's first sample."""
    samples = np.asarray(samples, dtype=complex)
    qc = device.qubits[control]
    qt = device.qubits[target]
    dt = device.dt
    coupling = 2 * math.pi * device.coupling_strength(control, target)
    omega_d = qt.omega + 2 * math.pi * freq_shift
    delta_c = qc.omega - omega_d
    delta_t = qt.omega - omega_d
    g = 2 * math.pi * qc.drive_strength
    duration = len(samples)
    unitary = np.eye(4, dtype=complex)
    k = 0
    while k < duration:
        run = 1
        while (
            k + run < duration
            and abs(samples[k + run] - samples[k]) < 1e-12
        ):
            run += 1
        rabi = g * (samples[k] * np.exp(1j * phase))
        if include_stark and abs(delta_c) > 1e-12:
            stark_c = (g * abs(samples[k])) ** 2 / (2 * delta_c)
        else:
            stark_c = 0.0
        hamiltonian = reference_cr_hamiltonian(
            rabi.real, rabi.imag, delta_c, delta_t, coupling, stark_c
        )
        unitary = reference_expm_hermitian(hamiltonian, run * dt) @ unitary
        k += run
    total_time = duration * dt
    phase_c = np.exp(+1j * (delta_c / 2) * total_time * np.array([1, -1]))
    phase_t = np.exp(+1j * (delta_t / 2) * total_time * np.array([1, -1]))
    return np.kron(np.diag(phase_t), np.diag(phase_c)) @ unitary


def reference_virtual_z_corrected(unitary, target):
    """virtual_z_corrected with its RZ diagonals built by ``np.kron``."""

    def rz_diag(angle):
        return np.array(
            [np.exp(-1j * angle / 2), np.exp(1j * angle / 2)], dtype=complex
        )

    def dress(angles):
        a, b, c, d = angles
        pre = np.kron(rz_diag(d), rz_diag(c))
        post = np.kron(rz_diag(b), rz_diag(a))
        return (post[:, None] * unitary) * pre[None, :]

    def objective(angles):
        overlap = abs(np.trace(target.conj().T @ dress(angles))) / 4
        return 1.0 - overlap**2

    best = None
    for start in (np.zeros(4), np.array([0.3, -0.3, 0.3, -0.3])):
        result = minimize(
            objective, start, method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 2000},
        )
        if best is None or result.fun < best.fun:
            best = result
    return dress(best.x), float(1.0 - best.fun), best.x


def cr_half(width, amp=0.9, sigma=32.0, risefall=64):
    """Samples of one echoed-CR half, aligned as CRCalibration aligns them."""
    duration = -(-(math.ceil(width) + 2 * risefall) // 16) * 16
    return GaussianSquare(duration, amp, sigma, width).samples()


class TestSU2:
    def test_identity_at_zero(self):
        np.testing.assert_allclose(
            su2_propagator(0, 0, 0, 1.0), np.eye(2), atol=1e-14
        )

    def test_x_rotation(self):
        # exp(-i t (h X)) with 2 h t = theta
        theta = 0.8
        u = su2_propagator(theta / 2, 0, 0, 1.0)
        np.testing.assert_allclose(u, rx(theta), atol=1e-12)

    def test_always_unitary(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = rng.normal(size=3)
            u = su2_propagator(*h, rng.uniform(0, 10))
            assert is_unitary(u)

    def test_array_fields_match_per_element_calls(self):
        rng = np.random.default_rng(1)
        hx, hy, hz = rng.normal(size=(3, 4, 5))
        hx[0, 0] = hy[0, 0] = hz[0, 0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a zero field must not warn
            stacked = su2_propagator(hx, hy, hz, 0.7)
        assert stacked.shape == (4, 5, 2, 2)
        for index in np.ndindex(4, 5):
            fields = (hx[index], hy[index], hz[index])
            assert np.array_equal(stacked[index], su2_propagator(*fields, 0.7))
            assert np.array_equal(stacked[index], reference_su2(*fields, 0.7))
        assert np.array_equal(stacked[0, 0], np.eye(2))


class TestDriveChannelPropagator:
    def test_resonant_constant_pulse_angle(self):
        device = single_qubit_device()
        qubit = device.qubits[0]
        amp, duration = 0.5, 320
        sched = Schedule(
            (0, Play(Constant(duration, amp), DriveChannel(0)))
        )
        unitary = drive_channel_propagator(
            sched.channel_timeline(DriveChannel(0)),
            device,
            0,
            include_stark=False,
        )
        theta = 2 * math.pi * qubit.drive_strength * amp * duration * device.dt
        np.testing.assert_allclose(unitary, rx(theta), atol=1e-9)

    def test_phase_rotates_axis(self):
        device = single_qubit_device()
        duration, amp = 320, 0.3
        sched = Schedule()
        sched.append(ShiftPhase(math.pi / 2, DriveChannel(0)))
        sched.append(Play(Constant(duration, amp), DriveChannel(0)))
        unitary = drive_channel_propagator(
            sched.channel_timeline(DriveChannel(0)),
            device,
            0,
            include_stark=False,
        )
        theta = (
            2 * math.pi * device.qubits[0].drive_strength * amp
            * duration * device.dt
        )
        ry = np.array(
            [
                [math.cos(theta / 2), -math.sin(theta / 2)],
                [math.sin(theta / 2), math.cos(theta / 2)],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(unitary, ry, atol=1e-9)

    def test_empty_timeline_is_identity(self):
        device = single_qubit_device()
        unitary = drive_channel_propagator([], device, 0)
        np.testing.assert_allclose(unitary, np.eye(2))

    def test_detuned_drive_reduces_transfer(self):
        device = single_qubit_device()
        d0 = DriveChannel(0)
        resonant = Schedule((0, Play(Gaussian(320, 0.4, 80), d0)))
        shifted = Schedule()
        shifted.append(ShiftFrequency(0.05, d0))  # 50 MHz off-resonance
        shifted.append(Play(Gaussian(320, 0.4, 80), d0))
        u_res = drive_channel_propagator(
            resonant.channel_timeline(d0), device, 0, include_stark=False
        )
        u_det = drive_channel_propagator(
            shifted.channel_timeline(d0), device, 0, include_stark=False
        )
        assert abs(u_det[1, 0]) < abs(u_res[1, 0])

    def test_stark_shift_tilts_axis(self):
        device = single_qubit_device()
        d0 = DriveChannel(0)
        sched = Schedule((0, Play(Gaussian(128, 0.9, 32), d0)))
        timeline = sched.channel_timeline(d0)
        with_stark = drive_channel_propagator(timeline, device, 0, True)
        without = drive_channel_propagator(timeline, device, 0, False)
        # stark shift visibly changes the unitary at high amplitude
        assert process_fidelity(with_stark, without) < 0.999

    def test_matches_dense_solver(self):
        device = single_qubit_device()
        d0 = DriveChannel(0)
        sched = Schedule()
        sched.append(Play(Gaussian(160, 0.7, 40), d0))
        sched.append(ShiftPhase(0.7, d0))
        sched.append(Play(Gaussian(96, 0.4, 24, angle=0.3), d0))
        fast = drive_channel_propagator(
            sched.channel_timeline(d0), device, 0
        )
        dense = dense_schedule_propagator(sched, device, [0], substeps=1)
        assert process_fidelity(fast, dense) > 1 - 1e-9

    def test_schedule_drive_unitaries_multi_qubit(self):
        device = DeviceModel([TransmonQubit(), TransmonQubit(frequency=5.08)])
        sched = Schedule()
        sched.append(Play(Gaussian(160, 0.5, 40), DriveChannel(0)))
        sched.append(Play(Gaussian(160, 0.25, 40), DriveChannel(1)))
        out = schedule_drive_unitaries(sched, device, [0, 1])
        assert set(out) == {0, 1}
        assert is_unitary(out[0]) and is_unitary(out[1])
        # different amplitudes -> different rotation angles
        assert abs(out[0][1, 0]) > abs(out[1][1, 0])


class TestSingleQubitCalibration:
    def test_x_calibration_high_fidelity(self):
        device = single_qubit_device()
        cal = calibrate_x(device, 0)
        assert cal.fidelity > 0.9995
        assert 0 < cal.amp <= 1
        assert cal.duration == 160
        # acts like X on |0>
        final = cal.unitary @ np.array([1, 0], dtype=complex)
        assert abs(final[1]) ** 2 > 0.999

    def test_sx_calibration(self):
        device = single_qubit_device()
        cal = calibrate_sx(device, 0)
        assert cal.fidelity > 0.9995
        # half the X rotation: |<1|U|0>|^2 = 1/2
        final = cal.unitary @ np.array([1, 0], dtype=complex)
        assert abs(final[1]) ** 2 == pytest.approx(0.5, abs=1e-3)

    def test_sx_amp_roughly_half_x_amp(self):
        device = single_qubit_device()
        x = calibrate_x(device, 0)
        sx = calibrate_sx(device, 0)
        assert sx.amp == pytest.approx(x.amp / 2, rel=0.05)

    def test_infeasible_duration_raises(self):
        from repro.exceptions import CalibrationError

        device = single_qubit_device(drive_strength=0.005)
        with pytest.raises(CalibrationError):
            calibrate_x(device, 0, duration=32)

    def test_phase_pi_gives_negative_rotation(self):
        device = single_qubit_device()
        cal = calibrate_rotation(device, 0, math.pi / 2, phase=math.pi)
        target = rx(-math.pi / 2)
        assert process_fidelity(cal.unitary, target) > 0.999

    def test_schedule_roundtrip(self):
        # simulating the stored schedule reproduces the stored unitary
        device = single_qubit_device()
        cal = calibrate_x(device, 0)
        unitary = drive_channel_propagator(
            cal.schedule.channel_timeline(DriveChannel(0)), device, 0
        )
        np.testing.assert_allclose(unitary, cal.unitary, atol=1e-12)


class TestCrossResonance:
    def test_cr_propagator_unitary(self):
        device = coupled_pair_device()
        samples = Constant(320, 0.8).samples()
        unitary = cr_pair_propagator(samples, device, 0, 1)
        assert is_unitary(unitary)

    def test_uncoupled_pair_raises(self):
        from repro.exceptions import PulseError

        device = DeviceModel(
            [TransmonQubit(), TransmonQubit(frequency=5.08)]
        )
        with pytest.raises(PulseError):
            cr_pair_propagator(
                Constant(64, 0.5).samples(), device, 0, 1
            )

    def test_cr_calibration_finds_pi_2(self):
        device = coupled_pair_device()
        cal = calibrate_cr(device, 0, 1, amp=0.9)
        assert cal.width_pi_2 > 0
        angle = cal.zx_angle(device, cal.width_pi_2)
        assert angle == pytest.approx(math.pi / 2, abs=1e-4)

    def test_echo_approximates_rzx(self):
        device = coupled_pair_device()
        cal = calibrate_cr(device, 0, 1, amp=0.9)
        echo, _ = cal.scaled_unitary(device, math.pi / 2)
        from repro.circuits import standard_gate

        target = standard_gate("rzx", [math.pi / 2]).matrix()
        assert process_fidelity(echo, target) > 0.95

    def test_raw_echo_needs_z_corrections(self):
        # the uncorrected echo carries residual local Z phases (and the
        # deterministic -1 from the two echo X pulses); virtual-Z
        # correction is what recovers the RZX target
        from repro.circuits import standard_gate
        from repro.pulsesim.calibration import virtual_z_corrected

        device = coupled_pair_device()
        cal = calibrate_cr(device, 0, 1, amp=0.9)
        raw = cal.echoed_unitary(device, cal.width_pi_2, phase=math.pi)
        target = standard_gate("rzx", [math.pi / 2]).matrix()
        corrected, fidelity, _ = virtual_z_corrected(raw, target)
        assert process_fidelity(corrected, target) > 0.95
        assert process_fidelity(corrected, target) > process_fidelity(
            raw, target
        )

    def test_cx_fidelity(self):
        device = coupled_pair_device()
        cal = calibrate_cr(device, 0, 1, amp=0.9)
        unitary, duration, fidelity = cx_unitary_from_cr(device, cal)
        assert fidelity > 0.95
        assert duration > 0
        assert is_unitary(unitary)

    def test_scaled_width_monotone_angle(self):
        device = coupled_pair_device()
        cal = calibrate_cr(device, 0, 1, amp=0.9)
        w_small = cal.width_for_angle(device, 0.8)
        w_big = cal.width_for_angle(device, 1.2)
        assert w_small < w_big < cal.width_pi_2

    def test_below_floor_angle_uses_amp_scaling(self):
        device = coupled_pair_device()
        cal = calibrate_cr(device, 0, 1, amp=0.9)
        small = cal.zx_angle_at_zero_width * 0.8
        from repro.circuits import standard_gate

        unitary, duration = cal.scaled_unitary(device, small)
        target = standard_gate("rzx", [small]).matrix()
        # small angles bottom out at the exchange-dressing floor, so the
        # bar is lower than for flat-top-dominated angles
        assert process_fidelity(unitary, target) > 0.9
        assert duration == cal.total_duration(0.0)

    def test_scaled_unitary_angles(self):
        device = coupled_pair_device()
        cal = calibrate_cr(device, 0, 1, amp=0.9)
        from repro.circuits import standard_gate

        for theta in (0.5, 1.0, math.pi / 2):
            unitary, duration = cal.scaled_unitary(device, theta)
            target = standard_gate("rzx", [theta]).matrix()
            assert process_fidelity(unitary, target) > 0.93
            assert duration % 16 == 0

    def test_negative_angle(self):
        device = coupled_pair_device()
        cal = calibrate_cr(device, 0, 1, amp=0.9)
        from repro.circuits import standard_gate

        unitary, _ = cal.scaled_unitary(device, -0.8)
        target = standard_gate("rzx", [-0.8]).matrix()
        assert process_fidelity(unitary, target) > 0.93

    @pytest.mark.parametrize(
        "phase, freq_shift",
        [(0.0, 0.0), (0.7, 0.0), (0.0, 0.01), (0.7, -0.02)],
    )
    def test_cr_fast_path_matches_dense(self, phase, freq_shift):
        # phase and freq_shift are the pulse-level model's trainable knobs
        device = coupled_pair_device()
        pulse = GaussianSquare(320, 0.8, 32, width=192)
        channel = device.control_channel(0, 1)
        sched = Schedule()
        sched.append(ShiftPhase(phase, channel))
        sched.append(ShiftFrequency(freq_shift, channel))
        sched.append(Play(pulse, channel))
        fast = cr_pair_propagator(
            pulse.samples(), device, 0, 1, phase=phase, freq_shift=freq_shift
        )
        dense = dense_schedule_propagator(
            sched, device, [0, 1], substeps=8
        )
        assert process_fidelity(fast, dense) > 1 - 1e-4


def _drive_timelines():
    d0 = DriveChannel(0)
    mixed = Schedule()
    mixed.append(ShiftPhase(0.4, d0))
    mixed.append(Play(Gaussian(160, 0.7, 40), d0))
    mixed.append(Delay(32, d0))
    mixed.append(ShiftFrequency(0.013, d0))
    mixed.append(Play(Drag(96, 0.3, 24, 0.8, angle=-0.5), d0))
    mixed.append(SetFrequency(5.02, d0))
    mixed.append(ShiftPhase(-1.1, d0))
    mixed.append(Play(Gaussian(64, 0.5, 16), d0))
    single = {
        "gaussian": Gaussian(160, 0.7, 40),
        "gaussian-angle": Gaussian(96, 0.4, 24, angle=0.3),
        "constant": Constant(96, 0.45),
        "zeros": Constant(64, 0.0),
    }
    timelines = {
        name: Schedule((0, Play(waveform, d0))).channel_timeline(d0)
        for name, waveform in single.items()
    }
    timelines["frames-delay-plays"] = mixed.channel_timeline(d0)
    timelines["empty"] = []
    return timelines


DRIVE_TIMELINES = _drive_timelines()

CR_SAMPLES = {
    "half-width-0": cr_half(0.0),
    "half-width-37.5": cr_half(37.5),
    "half-width-192.3-minus": cr_half(192.3, amp=-0.9),
    "gaussian": Gaussian(160, 0.5, 40).samples(),
    "gaussian-angle": Gaussian(96, 0.6, 24, angle=0.4).samples(),
    "constant": Constant(64, 0.5).samples(),
    "zeros": np.zeros(64, dtype=complex),
    "empty": np.zeros(0, dtype=complex),
    # many distinct complex values: catches an array complex product (it
    # may fuse multiply-adds) or an array ``** 2`` (it squares, the scalar
    # ``pow`` rounds on its own) in place of the scalar drive terms
    "random": 0.8 * np.random.default_rng(3).uniform(0, 1, 128)
    * np.exp(2j * math.pi * np.random.default_rng(4).uniform(0, 1, 128)),
}


def _unbounded_width_for_angle(cal, device, theta):
    """The bracket search as it was before its bound: up to 60 1.2x
    expansions (only safe for angles that bracket early)."""
    from scipy.optimize import brentq

    def objective(width):
        return cal.zx_angle(device, width) - theta

    rate = (math.pi / 2 - cal.zx_angle_at_zero_width) / cal.width_pi_2
    hi = (theta - cal.zx_angle_at_zero_width) / rate * 1.2 + 32
    for _ in range(60):
        if objective(hi) >= 0:
            break
        hi *= 1.2
    return float(brentq(objective, 0.0, hi, xtol=1e-6))


class TestWidthForAngleBound:
    """RZX angles near pi stop the bracket search at its bound instead of
    simulating ever-longer CR pulses until memory runs out."""

    @pytest.fixture(scope="class")
    def toronto_01(self):
        from repro.backends.fake import FakeToronto

        device = FakeToronto().device
        cal = calibrate_cr(
            device, 0, 1, amp=0.9, x_calibration=calibrate_x(device, 0)
        )
        return device, cal

    def test_unbracketed_angle_raises_within_seconds(self, toronto_01):
        import time

        from repro.exceptions import CalibrationError

        device, cal = toronto_01
        start = time.perf_counter()
        with pytest.raises(CalibrationError, match="bracket expansions"):
            cal.width_for_angle(device, 2.98)
        assert time.perf_counter() - start < 20

    @pytest.mark.parametrize("theta", [1.6, 2.4, 2.8, 2.89])
    def test_bracketing_angles_keep_their_widths(self, toronto_01, theta):
        device, cal = toronto_01
        assert cal.width_for_angle(device, theta) == (
            _unbounded_width_for_angle(cal, device, theta)
        )

    def test_pulse_efficient_pipeline_raises(self):
        from repro.backends.fake import FakeToronto
        from repro.core.models import GateLevelModel
        from repro.core.training import ExecutionPipeline
        from repro.exceptions import CalibrationError
        from repro.problems import MaxCutProblem, benchmark_graph
        from repro.vqa.cost import ExpectedCutCost

        problem = MaxCutProblem(benchmark_graph(1))
        pipeline = ExecutionPipeline(
            backend=FakeToronto(),
            cost=ExpectedCutCost(problem),
            pulse_efficient=True,
        )
        circuit = GateLevelModel(problem).build_circuit([2.983, 2.885])
        with pytest.raises(CalibrationError):
            pipeline.prepare(circuit)


class TestMatchesReferenceLoops:
    """The stacked propagators equal the per-sample loops bit for bit."""

    @pytest.mark.parametrize("include_stark", [True, False])
    @pytest.mark.parametrize("name", sorted(DRIVE_TIMELINES))
    def test_drive_channel(self, name, include_stark):
        device = single_qubit_device()
        timeline = DRIVE_TIMELINES[name]
        fast = drive_channel_propagator(timeline, device, 0, include_stark)
        assert np.array_equal(
            fast, reference_drive(timeline, device, 0, include_stark)
        )

    @pytest.mark.parametrize(
        "phase, freq_shift", [(0.0, 0.0), (math.pi, 0.0), (0.7, -0.013)]
    )
    @pytest.mark.parametrize("include_stark", [True, False])
    @pytest.mark.parametrize("name", sorted(CR_SAMPLES))
    def test_cr_pair(self, name, include_stark, phase, freq_shift):
        device = coupled_pair_device()
        samples = CR_SAMPLES[name]
        args = (samples, device, 0, 1, phase, freq_shift, include_stark)
        assert np.array_equal(cr_pair_propagator(*args), reference_cr(*args))

    def test_virtual_z_corrected(self):
        from repro.circuits import standard_gate

        device = coupled_pair_device()
        cal = calibrate_cr(device, 0, 1, amp=0.9)
        raw = cal.echoed_unitary(device, cal.width_pi_2, phase=math.pi)
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(
            rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        )
        for unitary, theta in ((raw, math.pi / 2), (raw, 0.8), (q, -1.2)):
            target = standard_gate("rzx", [theta]).matrix()
            corrected, fidelity, angles = virtual_z_corrected(unitary, target)
            ref_corrected, ref_fidelity, ref_angles = (
                reference_virtual_z_corrected(unitary, target)
            )
            assert np.array_equal(corrected, ref_corrected)
            assert fidelity == ref_fidelity
            assert np.array_equal(angles, ref_angles)


# ---------------------------------------------------------------------------
# Device memos key on the physics a solve reads, not on qubit indices.
# ---------------------------------------------------------------------------

FAKE_BACKENDS = ("auckland", "guadalupe", "montreal", "toronto")


def fake_device(name):
    from repro.backends import fake_backend_by_name

    return fake_backend_by_name(name).device


def directed_pairs(device):
    return [
        pair
        for i, j in device.coupled_pairs()
        for pair in ((i, j), (j, i))
    ]


def qubit_timelines(qubit):
    """A mixer-like pulse and a SetFrequency pulse on ``qubit``'s channel."""
    channel = DriveChannel(qubit)
    mixer = Schedule()
    mixer.append(ShiftFrequency(0.03, channel))
    mixer.append(Play(Gaussian(320, 0.4, 80, angle=0.3), channel))
    mixer.append(ShiftFrequency(-0.03, channel))
    set_frequency = Schedule()
    set_frequency.append(SetFrequency(4.96, channel))
    set_frequency.append(Play(Gaussian(160, 0.5, 40), channel))
    return [
        mixer.channel_timeline(channel),
        set_frequency.channel_timeline(channel),
    ]


def assert_same_gate_calibration(cal, ref, qubit):
    from repro.utils.cache import schedule_key

    for field in (
        "name", "qubit", "duration", "amp", "sigma", "phase",
        "freq_compensation", "fidelity",
    ):
        assert getattr(cal, field) == getattr(ref, field), field
    assert np.array_equal(cal.unitary, ref.unitary)
    assert schedule_key(cal.schedule) == schedule_key(ref.schedule)
    # the record names the caller's qubit and drives its channel
    assert cal.qubit == qubit
    assert cal.schedule.channels == [DriveChannel(qubit)]


def assert_same_cr_calibration(cal, ref, control, target):
    for field in (
        "control", "target", "amp", "sigma", "risefall", "width_pi_2",
        "x_control_duration", "zx_angle_at_zero_width",
    ):
        assert getattr(cal, field) == getattr(ref, field), field
    assert np.array_equal(cal.x_control_unitary, ref.x_control_unitary)
    assert (cal.control, cal.target) == (control, target)


class TestPhysicsKeyedMemos:
    """One solve per physics class, equal to the solve it stands in for."""

    @pytest.mark.parametrize("name", FAKE_BACKENDS)
    def test_memo_equals_uncached_solve_everywhere(self, name):
        from repro.utils.cache import caching_disabled, device_cache

        device = fake_device(name)
        fresh = fake_device(name)
        for qubit in range(device.num_qubits):
            for timeline in qubit_timelines(qubit):
                memo = drive_channel_propagator(timeline, device, qubit)
                with caching_disabled():
                    ref = drive_channel_propagator(timeline, fresh, qubit)
                assert np.array_equal(memo, ref)
            cal = calibrate_x(device, qubit)
            with caching_disabled():
                ref = calibrate_x(fresh, qubit)
            assert_same_gate_calibration(cal, ref, qubit)
        samples = cr_half(37.5)
        for control, target in directed_pairs(device):
            memo = cr_pair_propagator(
                samples, device, control, target, phase=math.pi
            )
            with caching_disabled():
                ref = cr_pair_propagator(
                    samples, fresh, control, target, phase=math.pi
                )
            assert np.array_equal(memo, ref)
            cal = calibrate_cr(device, control, target, amp=0.9)
            with caching_disabled():
                ref = calibrate_cr(fresh, control, target, amp=0.9)
            assert_same_cr_calibration(cal, ref, control, target)
        # every fake device has one drive class and two frequencies, so
        # two classes of directed pair (control below or above target)
        assert len({q.frequency for q in device.qubits}) == 2
        calibrations = device_cache(device, "calibrations")
        assert calibrations.misses == 1 + 2  # one X, two CR classes
        # the propagator solves do not grow with the device either: the
        # same 39 on the 16-qubit device as on the 27-qubit ones
        assert device_cache(device, "propagators").misses == 39
        for cache in fresh.__dict__["_repro_caches"].values():
            assert len(cache) == 0

    def _changed(self, device, solve, mutate):
        """(before, after) of ``solve`` around ``mutate``, asserting the
        second call misses the device memo."""
        from repro.utils.cache import device_cache

        before = solve()
        cache = device_cache(device, "propagators")
        misses = cache.misses
        mutate()
        after = solve()
        assert cache.misses == misses + 1
        assert not np.array_equal(before, after)
        return before, after

    @pytest.mark.parametrize(
        "field, value",
        [("drive_strength", 0.036), ("anharmonicity", -0.30)],
    )
    def test_drive_fields_are_keyed(self, field, value):
        device = fake_device("toronto")
        timeline = qubit_timelines(0)[0]
        self._changed(
            device,
            lambda: drive_channel_propagator(timeline, device, 0),
            lambda: setattr(device.qubits[0], field, value),
        )

    def test_frequency_is_keyed_only_under_set_frequency(self):
        from repro.utils.cache import device_cache

        device = fake_device("toronto")
        mixer, set_frequency = qubit_timelines(0)
        self._changed(
            device,
            lambda: drive_channel_propagator(set_frequency, device, 0),
            lambda: setattr(device.qubits[0], "frequency", 5.04),
        )
        # the mixer never reads the frequency: a qubit of the other
        # frequency class hits the same entry
        first = drive_channel_propagator(mixer, device, 0)
        other = next(
            q for q, params in enumerate(device.qubits)
            if params.frequency != device.qubits[0].frequency
        )
        cache = device_cache(device, "propagators")
        hits = cache.hits
        assert drive_channel_propagator(mixer, device, other) is first
        assert cache.hits == hits + 1

    @pytest.mark.parametrize("field", ["coupling", "control", "target"])
    def test_cr_fields_are_keyed(self, field):
        device = fake_device("toronto")
        control, target = device.coupled_pairs()[0]
        samples = cr_half(37.5)

        def mutate():
            if field == "coupling":
                # no public setter: J is fixed at construction
                device._coupling[(control, target)] = 0.006
            else:
                qubit = control if field == "control" else target
                device.qubits[qubit].frequency += 0.01

        self._changed(
            device,
            lambda: cr_pair_propagator(samples, device, control, target),
            mutate,
        )

    def test_cr_control_drive_strength_is_keyed(self):
        device = fake_device("toronto")
        control, target = device.coupled_pairs()[0]
        samples = cr_half(37.5)
        self._changed(
            device,
            lambda: cr_pair_propagator(samples, device, control, target),
            lambda: setattr(device.qubits[control], "drive_strength", 0.036),
        )

    def test_in_place_edit_is_seen_without_clearing(self):
        from repro.backends import fake_backend_by_name
        from repro.circuits.gates import PulseGate
        from repro.utils.cache import caching_disabled

        backend = fake_backend_by_name("toronto")
        device = backend.device
        control, target = device.coupled_pairs()[0]
        timeline = qubit_timelines(control)[0]
        gate = PulseGate(
            Schedule((0, Play(Gaussian(320, 0.4, 80), DriveChannel(0)))),
            num_qubits=1,
        )
        drive = drive_channel_propagator(timeline, device, control)
        pulse = backend.pulse_unitary(gate, (control,))
        x_cal = calibrate_x(device, control)
        cr_cal = calibrate_cr(device, control, target, amp=0.9)
        device.qubits[control] = TransmonQubit(
            frequency=device.qubits[control].frequency + 0.02,
            drive_strength=0.031,
        )
        with caching_disabled():
            ref_drive = drive_channel_propagator(timeline, device, control)
            ref_pulse = backend.pulse_unitary(gate, (control,))
            ref_x = calibrate_x(device, control)
            ref_cr = calibrate_cr(device, control, target, amp=0.9)
        assert not np.array_equal(drive, ref_drive)
        assert not np.array_equal(pulse, ref_pulse)
        assert x_cal.amp != ref_x.amp
        assert cr_cal.width_pi_2 != ref_cr.width_pi_2
        assert np.array_equal(
            drive_channel_propagator(timeline, device, control), ref_drive
        )
        assert np.array_equal(
            backend.pulse_unitary(gate, (control,)), ref_pulse
        )
        assert_same_gate_calibration(
            calibrate_x(device, control), ref_x, control
        )
        assert_same_cr_calibration(
            calibrate_cr(device, control, target, amp=0.9), ref_cr,
            control, target,
        )

    def test_one_drive_solve_per_mixer_pulse(self):
        from repro.backends import FakeToronto
        from repro.circuits.gates import PulseGate
        from repro.core.models import HybridGatePulseModel
        from repro.problems import MaxCutProblem, benchmark_graph
        from repro.utils.cache import device_cache

        backend = FakeToronto()
        model = HybridGatePulseModel(
            MaxCutProblem(benchmark_graph(1)), backend.device, p=2
        )
        values = model.initial_point(3)
        circuit = model.build_circuit(values)
        pulses = [
            inst for inst in circuit.instructions
            if isinstance(inst.operation, PulseGate)
        ]
        assert len(pulses) == 2 * model.num_qubits
        for inst in pulses:
            backend.pulse_unitary(inst.operation, inst.qubits)
        # both layers' mixers differ, each played on every qubit
        assert device_cache(backend.device, "propagators").misses == 2


class TestChannelsStayKeyed:
    """Only the drive solve leaves the channel out of its key: it plays a
    timeline on the qubit it is given.  Whole-schedule keys name every
    instruction's channel."""

    @staticmethod
    def play_on(channel, duration=320):
        pulse = Gaussian(duration, 0.4, duration / 4)
        return Schedule((0, Play(pulse, channel)))

    def test_schedule_key_names_the_channel(self):
        from repro.utils.cache import payload_timeline_key, schedule_key

        on_d0 = self.play_on(DriveChannel(0))
        on_d1 = self.play_on(DriveChannel(1))
        on_u0 = self.play_on(ControlChannel(0))
        again = self.play_on(DriveChannel(0))
        assert schedule_key(on_d0) == schedule_key(again)
        assert schedule_key(on_d0) != schedule_key(on_d1)
        assert schedule_key(on_d0) != schedule_key(on_u0)
        assert payload_timeline_key(
            on_d0.channel_timeline(DriveChannel(0))
        ) == payload_timeline_key(on_d1.channel_timeline(DriveChannel(1)))

    def test_pulse_unitary_keeps_gate_positions_apart(self):
        from repro.backends import FakeToronto
        from repro.circuits.gates import PulseGate
        from repro.utils.cache import caching_disabled

        backend = FakeToronto()
        single = drive_channel_propagator(
            self.play_on(DriveChannel(0)).timed_instructions,
            backend.device,
            0,
        )
        results = []
        for position in (0, 1):
            gate = PulseGate(
                self.play_on(DriveChannel(position)), num_qubits=2
            )
            memo = backend.pulse_unitary(gate, (0, 1))
            with caching_disabled():
                ref = backend.pulse_unitary(gate, (0, 1))
            assert np.array_equal(memo, ref)
            results.append(memo)
        # gate-local channel i drives phys_qubits[i], bit i of the unitary
        assert np.array_equal(results[0], np.kron(np.eye(2), single))
        assert np.array_equal(results[1], np.kron(single, np.eye(2)))

    def test_pulse_unitary_keys_the_frequency_under_set_frequency(self):
        from repro.backends import FakeToronto
        from repro.circuits.gates import PulseGate
        from repro.utils.cache import caching_disabled

        backend = FakeToronto()
        device = backend.device
        low, high = (
            next(q for q, params in enumerate(device.qubits)
                 if params.frequency == frequency)
            for frequency in sorted({q.frequency for q in device.qubits})
        )
        schedule = Schedule()
        schedule.append(SetFrequency(4.96, DriveChannel(0)))
        schedule.append(Play(Gaussian(160, 0.5, 40), DriveChannel(0)))
        gate = PulseGate(schedule, num_qubits=1)
        on_low = backend.pulse_unitary(gate, (low,))
        on_high = backend.pulse_unitary(gate, (high,))
        assert not np.array_equal(on_low, on_high)
        with caching_disabled():
            ref = backend.pulse_unitary(gate, (high,))
        assert np.array_equal(on_high, ref)

    def test_dense_solver_tells_drive_from_control_channel(self):
        from repro.utils.cache import caching_disabled

        device = coupled_pair_device()
        results = []
        for channel in (DriveChannel(0), device.control_channel(0, 1)):
            schedule = self.play_on(channel, duration=32)
            memo = dense_schedule_propagator(schedule, device, [0, 1])
            with caching_disabled():
                ref = dense_schedule_propagator(schedule, device, [0, 1])
            assert np.array_equal(memo, ref)
            results.append(memo)
        assert not np.array_equal(results[0], results[1])
