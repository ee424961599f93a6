"""Pulse calibration routines.

These mirror the vendor calibration the paper relies on when it keeps
"well calibrated" gate-level operations for the problem-specific layers:

* :func:`calibrate_rotation` — amplitude (and Stark-compensating detuning)
  of a Gaussian drive realising RX(angle); :func:`calibrate_x` /
  :func:`calibrate_sx` specialise to the native X / SX pulses.
* :func:`calibrate_cr` — flat-top width of the echoed cross-resonance
  pulse pair realising RZX(pi/2), the native two-qubit primitive.
* :func:`cx_unitary_from_cr` — CX built from the echo plus local
  corrections (``CX = (RZ(-pi/2) ⊗ RX(-pi/2)) · RZX(pi/2)``).
* :meth:`CRCalibration.scaled_unitary` — pulse-efficient RZX(theta) by
  rescaling the flat-top width (the Step-I "pulse-efficient construction
  for 2-qubit gates").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq, minimize

from repro.exceptions import CalibrationError
from repro.hamiltonian.system import DeviceModel
from repro.pulse.channels import DriveChannel
from repro.pulse.instructions import Play, ShiftFrequency
from repro.pulse.schedule import Schedule
from repro.pulse.waveforms import (
    GAUSSIAN_GRANULARITY,
    TIMING_ALIGNMENT,
    Gaussian,
    GaussianSquare,
)
from repro.pulsesim.solver import (
    cr_pair_propagator,
    cr_physics,
    drive_channel_propagator,
    drive_physics,
)
from repro.utils.cache import cache_key, device_cache
from repro.utils.linalg import process_fidelity

_DEFAULT_SQ_DURATION = 160  # samples; the IBM-native sx/x pulse length

#: 1.2x expansions :meth:`CRCalibration.width_for_angle` tries before it
#: gives up: 1.2**25 is about 95x the linear width estimate (the old
#: limit of 60 reached 56,000x and exhausted memory simulating the
#: pulses).  A survey of all 200 directed coupled pairs of the fake
#: backends at PulseEfficientRZZ's cr_amp 0.9, angles 1.50 to 3.14 in
#: steps of 0.01, found every angle up to 2.87 bracketing within 19
#: expansions.  Above that the search lands on later oscillations of the
#: ZX curve: some angles bracket (2.89 at 23, 3.09 at 25, 2.93 at 26),
#: others not within 30.  25 keeps every angle that brackets within 30
#: but 2.93.
_MAX_BRACKET_EXPANSIONS = 25


@dataclass
class GateCalibration:
    """A calibrated single-qubit pulse gate."""

    name: str
    qubit: int
    duration: int
    amp: float
    sigma: float
    phase: float
    freq_compensation: float  # GHz, Stark-compensating detuning
    unitary: np.ndarray
    fidelity: float
    schedule: Schedule = field(repr=False)


def _rotation_schedule(
    qubit: int,
    duration: int,
    amp: float,
    sigma: float,
    phase: float,
    freq_compensation: float,
    dt: float,
) -> Schedule:
    """ShiftFrequency / Play / unshift sandwich implementing the rotation.

    The played angle subtracts the mid-pulse phase the frequency shift
    accumulates, so the rotation axis stays at ``phase`` instead of being
    dragged by the compensation shift.
    """
    channel = DriveChannel(qubit)
    schedule = Schedule(name=f"rx_q{qubit}")
    mid_phase = 2 * math.pi * freq_compensation * (duration * dt / 2)
    if freq_compensation:
        schedule.append(ShiftFrequency(freq_compensation, channel))
    schedule.append(
        Play(Gaussian(duration, amp, sigma, angle=phase - mid_phase), channel)
    )
    if freq_compensation:
        schedule.append(ShiftFrequency(-freq_compensation, channel))
    return schedule


def _rotation_unitary(
    device: DeviceModel,
    qubit: int,
    duration: int,
    amp: float,
    sigma: float,
    phase: float,
    freq_compensation: float,
    include_stark: bool,
) -> np.ndarray:
    schedule = _rotation_schedule(
        qubit, duration, amp, sigma, phase, freq_compensation, device.dt
    )
    timeline = schedule.channel_timeline(DriveChannel(qubit))
    return drive_channel_propagator(
        timeline, device, qubit, include_stark=include_stark
    )


def _achieved_angle(unitary: np.ndarray) -> float:
    """Total rotation angle of an SU(2) unitary via its (real) trace.

    ``U = cos(theta/2) I - i sin(theta/2) n.sigma`` has trace
    ``2 cos(theta/2)`` regardless of the rotation axis, so this stays
    well-defined (and bracketable) even when the Stark shift tilts the
    axis out of the XY plane.
    """
    half_trace = float(np.real(np.trace(unitary))) / 2
    return 2 * math.acos(min(1.0, max(-1.0, half_trace)))


def _rx_target(angle: float, phase: float) -> np.ndarray:
    """Rotation by ``angle`` about the axis cos(phase) X + sin(phase) Y."""
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return np.array(
        [
            [c, -1j * s * np.exp(-1j * phase)],
            [-1j * s * np.exp(1j * phase), c],
        ],
        dtype=complex,
    )


def calibrate_rotation(
    device: DeviceModel,
    qubit: int,
    angle: float,
    duration: int = _DEFAULT_SQ_DURATION,
    sigma: float | None = None,
    phase: float = 0.0,
    include_stark: bool = True,
    compensate_stark: bool = True,
) -> GateCalibration:
    """Calibrate a Gaussian pulse performing RX(angle) (phase-rotated axis).

    The amplitude is found by root-solving the achieved rotation angle of
    the simulated propagator; the AC-Stark shift is pre-compensated by an
    envelope-weighted frequency offset, mirroring how hardware calibration
    absorbs the shift into the pulse definition.

    Calibrations are pure functions of the arguments and the qubit's
    physics (:func:`~repro.pulsesim.solver.drive_physics`: the pulses
    tried play no ``SetFrequency``, so the frequency is not read), and
    every VQA iteration re-requests the same ones, so the solved numbers
    are memoized on the device under that physics and shared by every
    qubit that has it.  Each call returns a fresh record (callers rename the
    ``name`` field) naming its own qubit and driving its own channel,
    sharing the immutable-by-convention unitary.
    """
    if sigma is None:
        sigma = duration / 4
    key = (
        "calibrate_rotation", drive_physics(device, qubit), angle, duration,
        sigma, phase, include_stark, compensate_stark,
    )
    cache = device_cache(device, "calibrations", maxsize=256)
    amp, freq_comp, unitary, fidelity = cache.get_or_compute(
        key,
        lambda: _calibrate_rotation(
            device, qubit, angle, duration, sigma, phase,
            include_stark, compensate_stark,
        ),
    )
    return GateCalibration(
        name=f"r({angle:.4f})",
        qubit=qubit,
        duration=duration,
        amp=float(amp),
        sigma=float(sigma),
        phase=phase,
        freq_compensation=freq_comp,
        unitary=unitary,
        fidelity=fidelity,
        schedule=_rotation_schedule(
            qubit, duration, amp, sigma, phase, freq_comp, device.dt
        ),
    )


def _calibrate_rotation(
    device: DeviceModel,
    qubit: int,
    angle: float,
    duration: int,
    sigma: float,
    phase: float,
    include_stark: bool,
    compensate_stark: bool,
) -> tuple[float, float, np.ndarray, float]:
    """Solved ``(amp, freq_compensation, unitary, fidelity)``."""
    if not 0 < angle <= math.pi:
        raise CalibrationError(
            f"calibrate_rotation expects angle in (0, pi], got {angle:g}"
        )
    if duration % GAUSSIAN_GRANULARITY:
        raise CalibrationError(
            f"duration {duration} is not a multiple of {GAUSSIAN_GRANULARITY}"
        )
    params = device.qubits[qubit]
    unit_area_ns = (
        Gaussian(duration, 1.0, sigma).area().real * device.dt
    )
    amp_guess = angle / (2 * math.pi * params.drive_strength * unit_area_ns)
    if amp_guess > 1.0:
        raise CalibrationError(
            f"rotation of {angle:.3f} rad needs amp {amp_guess:.3f} > 1 at "
            f"duration {duration} dt; lengthen the pulse"
        )

    freq_comp = 0.0
    if include_stark and compensate_stark:
        envelope = np.abs(Gaussian(duration, 1.0, sigma).samples())
        rabi = 2 * math.pi * params.drive_strength * amp_guess * envelope
        stark = rabi**2 / (2 * params.alpha)
        weights = envelope
        mean_stark = float(np.sum(stark * weights) / np.sum(weights))
        # the represented qubit shift is -stark (conjugate convention);
        # shifting the drive by the same amount restores resonance
        freq_comp = -mean_stark / (2 * math.pi)  # GHz

    def objective(amp: float) -> float:
        unitary = _rotation_unitary(
            device, qubit, duration, amp, sigma, phase, freq_comp,
            include_stark,
        )
        return _achieved_angle(unitary) - angle

    hi = min(1.0, amp_guess * 1.6 + 0.05)
    lo = amp_guess * 0.5
    try:
        amp = brentq(objective, lo, hi, xtol=1e-10)
    except ValueError as exc:
        raise CalibrationError(
            f"amplitude bracket [{lo:.3f}, {hi:.3f}] does not cross the "
            f"target angle {angle:.3f} on qubit {qubit}"
        ) from exc

    unitary = _rotation_unitary(
        device, qubit, duration, amp, sigma, phase, freq_comp, include_stark
    )
    fidelity = process_fidelity(unitary, _rx_target(angle, phase))
    return amp, freq_comp, unitary, fidelity


def calibrate_x(
    device: DeviceModel,
    qubit: int,
    duration: int = _DEFAULT_SQ_DURATION,
    **kwargs,
) -> GateCalibration:
    """Calibrated pi pulse (X gate)."""
    cal = calibrate_rotation(device, qubit, math.pi, duration, **kwargs)
    cal.name = "x"
    return cal


def calibrate_sx(
    device: DeviceModel,
    qubit: int,
    duration: int = _DEFAULT_SQ_DURATION,
    **kwargs,
) -> GateCalibration:
    """Calibrated pi/2 pulse (SX gate, up to the e^{i pi/4} phase)."""
    cal = calibrate_rotation(device, qubit, math.pi / 2, duration, **kwargs)
    cal.name = "sx"
    return cal


# ---------------------------------------------------------------------------
# Cross resonance
# ---------------------------------------------------------------------------

@dataclass
class CRCalibration:
    """Calibrated echoed cross-resonance primitive for one directed pair.

    ``width_pi_2`` is the flat-top width (samples, per echo half) whose
    echoed sequence realises RZX(pi/2); other angles rescale the width via
    :meth:`width_for_angle`.
    """

    control: int
    target: int
    amp: float
    sigma: float
    risefall: int
    width_pi_2: float
    x_control_unitary: np.ndarray
    x_control_duration: int
    zx_angle_at_zero_width: float

    def half_duration(self, width: float) -> int:
        """Aligned duration of one CR half with flat-top ``width``."""
        raw = int(math.ceil(width)) + 2 * self.risefall
        if raw % TIMING_ALIGNMENT:
            raw += TIMING_ALIGNMENT - raw % TIMING_ALIGNMENT
        return raw

    def total_duration(self, width: float) -> int:
        """Echoed-sequence duration: two halves plus two control X pulses."""
        return 2 * self.half_duration(width) + 2 * self.x_control_duration

    def _half_samples(
        self, width: float, sign: float, amp_scale: float = 1.0
    ) -> np.ndarray:
        duration = self.half_duration(width)
        pulse = GaussianSquare(
            duration,
            self.amp * sign * amp_scale,
            self.sigma,
            min(width, duration),
        )
        return pulse.samples()

    def echoed_unitary(
        self,
        device: DeviceModel,
        width: float,
        phase: float = 0.0,
        amp_scale: float = 1.0,
        freq_shift: float = 0.0,
    ) -> np.ndarray:
        """Unitary of CR(+)-Xc-CR(-)-Xc with flat-top ``width`` per half.

        Little-endian, control qubit = bit 0.  The echo X pulses use the
        calibrated single-qubit unitary; exchange coupling during them is
        neglected (it is echoed away to leading order).  ``freq_shift``
        (GHz) detunes the CR drive from the target frequency — the
        trainable knob of the pulse-level model; away from zero the ZX
        rate and the target's frame both degrade.
        """
        x_c = np.kron(np.eye(2), self.x_control_unitary)
        plus = cr_pair_propagator(
            self._half_samples(width, +1.0, amp_scale),
            device,
            self.control,
            self.target,
            phase=phase,
            freq_shift=freq_shift,
        )
        minus = cr_pair_propagator(
            self._half_samples(width, -1.0, amp_scale),
            device,
            self.control,
            self.target,
            phase=phase,
            freq_shift=freq_shift,
        )
        return x_c @ minus @ x_c @ plus

    def zx_angle(
        self, device: DeviceModel, width: float, amp_scale: float = 1.0
    ) -> float:
        """Effective ZX rotation angle of the echoed sequence (in [0, pi]).

        Extracted from the trace magnitude: ``|tr U| = 4 |cos(a/2)|``,
        which is insensitive to the deterministic -1 global phase the two
        SU(2) echo X pulses contribute, and single-valued for a <= pi.
        """
        unitary = self.echoed_unitary(device, width, amp_scale=amp_scale)
        half_trace = abs(complex(np.trace(unitary))) / 4
        return 2 * math.acos(min(1.0, half_trace))

    def width_for_angle(
        self, device: DeviceModel, theta: float
    ) -> float:
        """Flat-top width whose echo realises RZX(|theta|), theta <= pi.

        Brackets the root using the linear flat-top rate through the pi/2
        calibration point, then refines with a bracketed root solve.
        """
        theta = abs(theta)
        if theta > math.pi + 1e-9:
            raise CalibrationError(
                f"width_for_angle expects |theta| <= pi, got {theta:.3f}"
            )
        if theta < 1e-12:
            return 0.0
        if theta <= self.zx_angle_at_zero_width:
            raise CalibrationError(
                f"angle {theta:.3f} below the zero-width floor "
                f"{self.zx_angle_at_zero_width:.3f}; rescale the amplitude "
                f"(scaled_unitary does this automatically)"
            )

        def objective(width: float) -> float:
            return self.zx_angle(device, width) - theta

        lo = 0.0
        if self.width_pi_2 > 0:
            rate = (
                math.pi / 2 - self.zx_angle_at_zero_width
            ) / self.width_pi_2
            hi = (theta - self.zx_angle_at_zero_width) / rate * 1.2 + 32
        else:
            hi = 256.0
        for _ in range(_MAX_BRACKET_EXPANSIONS + 1):
            if objective(hi) >= 0:
                break
            hi *= 1.2
        else:
            raise CalibrationError(
                f"cannot reach ZX angle {theta:.3f} on pair "
                f"({self.control},{self.target}) within "
                f"{_MAX_BRACKET_EXPANSIONS} bracket expansions"
            )
        return float(brentq(objective, lo, hi, xtol=1e-6))

    def amp_scale_for_angle(
        self, device: DeviceModel, theta: float
    ) -> float:
        """Amplitude scale realising a below-floor angle at zero width.

        The reachable angle bottoms out at the always-on exchange
        dressing (the J flip-flop is not echoed by the control-X pulses);
        targets below that floor return the minimal scale — the virtual-Z
        correction then recovers what it can.
        """
        theta = abs(theta)
        min_scale = 1e-3

        def objective(scale: float) -> float:
            return self.zx_angle(device, 0.0, amp_scale=scale) - theta

        if objective(min_scale) >= 0:
            return min_scale
        return float(brentq(objective, min_scale, 1.0, xtol=1e-8))

    def scaled_unitary(
        self, device: DeviceModel, theta: float
    ) -> tuple[np.ndarray, int]:
        """(unitary, duration) realising RZX(theta) by width rescaling.

        Angles below the zero-width floor rescale the pulse amplitude
        instead (the standard pulse-efficient small-angle strategy).
        """
        sign = 1.0 if math.sin(theta / 2) >= 0 else -1.0
        magnitude = abs(theta) % (2 * math.pi)
        if magnitude > math.pi:
            # shorter to rotate the other way
            magnitude = 2 * math.pi - magnitude
            sign = -sign
        # with exchange coupling J > 0 the echoed CR driven at phase 0
        # accumulates a *negative* ZX angle; drive at phase pi for +theta
        phase = math.pi if sign > 0 else 0.0
        if magnitude < 1e-12:
            return np.eye(4, dtype=complex), 0
        if magnitude <= self.zx_angle_at_zero_width:
            scale = self.amp_scale_for_angle(device, magnitude)
            unitary = self.echoed_unitary(
                device, 0.0, phase=phase, amp_scale=scale
            )
            duration = self.total_duration(0.0)
        else:
            width = self.width_for_angle(device, magnitude)
            unitary = self.echoed_unitary(device, width, phase=phase)
            duration = self.total_duration(width)
        from repro.circuits.gates import standard_gate

        target = standard_gate("rzx", [sign * magnitude]).matrix()
        corrected, _fid, _angles = virtual_z_corrected(unitary, target)
        return corrected, duration


def virtual_z_corrected(
    unitary: np.ndarray, target: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray]:
    """Dress ``unitary`` with free virtual-Z rotations to approach ``target``.

    Finds angles (a, b, c, d) maximising the process fidelity of
    ``(RZ(a) ⊗ RZ(b)) U (RZ(c) ⊗ RZ(d))`` against ``target`` — the same
    phase bookkeeping hardware backends fold into their 2-qubit schedules
    for free.  Returns (corrected_unitary, fidelity, angles).
    """

    target_dagger = target.conj().T

    def dress(angles: np.ndarray) -> np.ndarray:
        # rows: RZ(a..d) diagonals; pre = RZ(d)⊗RZ(c), post = RZ(b)⊗RZ(a)
        rz = np.exp(np.array([-1j, 1j]) * angles[:, None] / 2)
        pre = (rz[3][:, None] * rz[2]).ravel()
        post = (rz[1][:, None] * rz[0]).ravel()
        return (post[:, None] * unitary) * pre[None, :]

    def objective(angles: np.ndarray) -> float:
        dressed = dress(angles)
        overlap = abs(np.trace(target_dagger @ dressed)) / 4
        return 1.0 - overlap**2

    best = None
    for start in (np.zeros(4), np.array([0.3, -0.3, 0.3, -0.3])):
        result = minimize(
            objective, start, method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 2000},
        )
        if best is None or result.fun < best.fun:
            best = result
    corrected = dress(best.x)
    return corrected, float(1.0 - best.fun), best.x


def _rz_diag(angle: float) -> np.ndarray:
    """Diagonal of RZ(angle) as a length-2 vector."""
    return np.array(
        [np.exp(-1j * angle / 2), np.exp(1j * angle / 2)], dtype=complex
    )


def calibrate_cr(
    device: DeviceModel,
    control: int,
    target: int,
    amp: float = 0.25,
    sigma: float = 32.0,
    risefall_sigmas: float = 2.0,
    x_calibration: GateCalibration | None = None,
) -> CRCalibration:
    """Calibrate the echoed-CR width for RZX(pi/2) on a coupled pair.

    Memoized on the device: the two root solves here re-simulate the
    echoed sequence dozens of times, and training loops request the same
    pair calibration on every cost evaluation.  The key is what the
    solves read: the pair's physics
    (:func:`~repro.pulsesim.solver.cr_physics`), the pulse arguments and
    the echo X pulse's unitary and duration, so pairs with equal physics
    share one calibration.
    """
    if device.coupling_strength(control, target) == 0.0:
        raise CalibrationError(
            f"qubits {control} and {target} are not coupled"
        )
    if x_calibration is None:
        x_calibration = calibrate_x(device, control)
    key = cache_key(
        "calibrate_cr", cr_physics(device, control, target), amp, sigma,
        risefall_sigmas, x_calibration.duration, x_calibration.unitary,
    )
    cache = device_cache(device, "calibrations", maxsize=256)
    cached = cache.get_or_compute(
        key,
        lambda: _calibrate_cr(
            device, control, target, amp, sigma, risefall_sigmas,
            x_calibration,
        ),
    )
    # a fresh record naming the caller's pair: callers may adjust fields
    # on it and must not poison the device-wide cache entry
    return replace(cached, control=control, target=target)


def _calibrate_cr(
    device: DeviceModel,
    control: int,
    target: int,
    amp: float,
    sigma: float,
    risefall_sigmas: float,
    x_calibration: GateCalibration,
) -> CRCalibration:
    risefall = int(risefall_sigmas * sigma)
    cal = CRCalibration(
        control=control,
        target=target,
        amp=amp,
        sigma=sigma,
        risefall=risefall,
        width_pi_2=0.0,
        x_control_unitary=x_calibration.unitary,
        x_control_duration=x_calibration.duration,
        zx_angle_at_zero_width=0.0,
    )
    cal.zx_angle_at_zero_width = cal.zx_angle(device, 0.0)
    cal.width_pi_2 = cal.width_for_angle(device, math.pi / 2)
    return cal


def rzx_unitary(
    device: DeviceModel,
    cr_calibration: CRCalibration,
    theta: float,
) -> tuple[np.ndarray, int]:
    """Pulse-level RZX(theta): (unitary, duration in samples)."""
    return cr_calibration.scaled_unitary(device, theta)


def cx_unitary_from_cr(
    device: DeviceModel,
    cr_calibration: CRCalibration,
    sx_target_calibration: GateCalibration | None = None,
) -> tuple[np.ndarray, int, float]:
    """CX from the echoed CR: ``(RZ(-pi/2) ⊗ RX(-pi/2)) · RZX(pi/2)``.

    Returns (unitary, duration, fidelity_vs_ideal_cx).  The RX(-pi/2) on
    the target is a calibrated SX pulse driven with phase pi; RZ on the
    control is virtual (exact, zero duration).
    """
    target = cr_calibration.target
    if sx_target_calibration is None:
        sx_target_calibration = calibrate_rotation(
            device, target, math.pi / 2, phase=math.pi
        )
    echo, echo_duration = cr_calibration.scaled_unitary(
        device, math.pi / 2
    )
    rz_c = np.diag(
        [np.exp(1j * math.pi / 4), np.exp(-1j * math.pi / 4)]
    )  # RZ(-pi/2)
    local = np.kron(sx_target_calibration.unitary, rz_c)
    unitary = local @ echo
    duration = echo_duration + sx_target_calibration.duration
    cx = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
        ],
        dtype=complex,
    )
    fidelity = process_fidelity(unitary, cx)
    return unitary, duration, fidelity
