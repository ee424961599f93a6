"""Piecewise-constant pulse propagators.

All simulation happens in each qubit's own rotating frame (the "qubit
frame"): a resonant drive has a static Hamiltonian, a frequency-shifted
drive acquires a time-dependent phase ``exp(i * delta * t)``, and the
AC-Stark shift appears as an amplitude-dependent Z term.

Two fast paths cover the paper's workloads:

* :func:`drive_channel_propagator` — single-qubit SU(2) closed form over
  all samples of a ``Play`` at once, used for the hybrid model's pulse mixer;
* :func:`cr_pair_propagator` — 4x4 eigensolve-based exponentials for the
  exchange-coupled cross-resonance pair, used for pulse-efficient RZZ and
  the pulse-level baseline.  A run of equal samples (the flat top) is one
  segment, and one stacked ``eigh`` exponentiates every segment.

Both are memoized on the device, keyed by the values a solve reads
rather than by qubit index: the drive propagator by the qubit's drive
strength and anharmonicity, ``dt``, the Stark flag and the timeline's
payload, plus the qubit frequency only when a ``SetFrequency`` reads it;
the CR propagator by the control's frequency and drive strength, the
target's frequency, the pair's ``J``, ``dt``, the samples and the frame.
Qubits (pairs) with equal physics share one solve, and an in-place edit
of the device misses instead of serving a stale entry.

Both return, to the last bit, what a loop
over one sample (for CR, one segment) at a time returns: terms are formed
elementwise and summed in that loop's order, each eigensolve is a slice of
one stacked ``eigh``, and the steps are accumulated by sequential
left-multiplication ``unitary = step @ unitary`` (a pairwise reduction
would reorder the BLAS sums).  ``tests/test_pulsesim.py`` keeps those
loops and compares with ``==``.

:mod:`repro.pulsesim.dense` provides an any-channel reference solver used
to cross-validate both fast paths in the test suite.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.exceptions import PulseError, SimulatorError
from repro.hamiltonian.system import DeviceModel
from repro.pulse.channels import ControlChannel, DriveChannel
from repro.pulse.instructions import (
    Delay,
    Play,
    PulseInstruction,
    SetFrequency,
    ShiftFrequency,
    ShiftPhase,
)
from repro.pulse.schedule import Schedule
from repro.utils.cache import (
    UnhashableKey,
    cache_key,
    device_cache,
    payload_timeline_key,
)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# two-qubit Pauli products of the CR Hamiltonian, control qubit as the LSB
_X_C, _Y_C, _Z_C = (np.kron(np.eye(2), p) for p in (_X, _Y, _Z))
_Z_T = np.kron(_Z, np.eye(2))
_XX_YY = np.kron(_X, _X) + np.kron(_Y, _Y)


def su2_propagator(hx, hy, hz, time: float) -> np.ndarray:
    """Closed-form ``exp(-i * time * (hx X + hy Y + hz Z))``.

    Broadcasts over array fields: the result has shape
    ``broadcast(hx, hy, hz).shape + (2, 2)``, so scalar fields give one
    2x2.  A zero field gives the identity.
    """
    field = np.sqrt(hx * hx + hy * hy + hz * hz)
    zero = field < 1e-300
    norm = np.where(zero, 1.0, field)
    theta = norm * time
    c = np.where(zero, 1.0, np.cos(theta))
    s = np.where(zero, 0.0, np.sin(theta) / norm)
    entries = [
        c - 1j * (s * hz),
        -s * (hy + 1j * hx),
        s * (hy - 1j * hx),
        c + 1j * (s * hz),
    ]
    return np.stack(entries, axis=-1).reshape(c.shape + (2, 2))


class _ChannelFrame:
    """Accumulated software frame of one channel: phase and freq shift."""

    __slots__ = ("phase", "freq_shift")

    def __init__(self) -> None:
        self.phase = 0.0
        self.freq_shift = 0.0  # angular rad/ns relative to the qubit

    def update(self, instruction: PulseInstruction, base_omega: float) -> None:
        if isinstance(instruction, ShiftPhase):
            self.phase += float(instruction.phase)
        elif isinstance(instruction, ShiftFrequency):
            self.freq_shift += 2 * math.pi * float(instruction.frequency)
        elif isinstance(instruction, SetFrequency):
            self.freq_shift = (
                2 * math.pi * float(instruction.frequency) - base_omega
            )


def drive_channel_propagator(
    timeline: Sequence[tuple[int, PulseInstruction]],
    device: DeviceModel,
    qubit: int,
    include_stark: bool = True,
) -> np.ndarray:
    """Unitary of one qubit's drive-channel timeline (qubit frame).

    ``timeline`` holds ``(start_sample, instruction)`` pairs as produced by
    :meth:`repro.pulse.schedule.Schedule.channel_timeline`.  Delays are
    identity (decoherence is applied by the noise layer, not here).

    Results are memoized on the device, keyed by :func:`drive_key` (the
    timeline's waveform parameters and the physics the solve reads), so
    re-evaluating an unchanged pulse (e.g. during a calibration
    bisection, or the shared mixer on every qubit) is a dictionary
    lookup.  Parameterized (unbound) timelines fall through uncached.
    """
    timeline = list(timeline)
    try:
        key = ("drive", drive_key(device, qubit, timeline), include_stark)
    except UnhashableKey:
        key = None
    if key is not None:
        cache = device_cache(device, "propagators")
        return cache.get_or_compute(
            key,
            lambda: _drive_channel_propagator(
                timeline, device, qubit, include_stark
            ),
        )
    return _drive_channel_propagator(timeline, device, qubit, include_stark)


def drive_physics(device: DeviceModel, qubit: int) -> tuple:
    """What a drive solve on ``qubit`` reads of the device, frequency aside.

    Drive strength, anharmonicity (the Stark term) and ``dt``: all that a
    timeline without a ``SetFrequency`` reads (see :func:`drive_key`).
    """
    params = device.qubits[qubit]
    return (params.drive_strength, params.anharmonicity, device.dt)


def drive_key(
    device: DeviceModel,
    qubit: int,
    timeline: Sequence[tuple[int, PulseInstruction]],
) -> tuple:
    """Key of everything a drive solve of ``timeline`` on ``qubit`` reads.

    :func:`drive_physics`, the qubit frequency only when a
    ``SetFrequency`` reads it, and the timeline's starts and payloads.
    The channel is left out: the solve plays the timeline on ``qubit``
    whatever channel it names.  Raises
    :class:`~repro.utils.cache.UnhashableKey` for unbound parameters.
    """
    frequency = None
    if any(isinstance(inst, SetFrequency) for _start, inst in timeline):
        frequency = device.qubits[qubit].frequency
    return (
        drive_physics(device, qubit),
        frequency,
        payload_timeline_key(timeline),
    )


def cr_physics(device: DeviceModel, control: int, target: int) -> tuple:
    """What a CR solve on ``(control, target)`` reads of the device.

    The control's frequency and drive strength, the target's frequency,
    the pair's exchange coupling ``J`` and ``dt``; the anharmonicities
    are not read.
    """
    qc = device.qubits[control]
    return (
        qc.frequency,
        qc.drive_strength,
        device.qubits[target].frequency,
        device.coupling_strength(control, target),
        device.dt,
    )


def _drive_channel_propagator(
    timeline: Sequence[tuple[int, PulseInstruction]],
    device: DeviceModel,
    qubit: int,
    include_stark: bool,
) -> np.ndarray:
    params = device.qubits[qubit]
    g = 2 * math.pi * params.drive_strength  # rad/ns at unit amplitude
    dt = device.dt
    frame = _ChannelFrame()
    unitary = np.eye(2, dtype=complex)

    for start, instruction in timeline:
        if isinstance(instruction, (ShiftPhase, ShiftFrequency, SetFrequency)):
            frame.update(instruction, params.omega)
            continue
        if isinstance(instruction, Delay):
            continue
        if not isinstance(instruction, Play):
            raise SimulatorError(
                f"unsupported instruction {instruction!r} on drive channel"
            )
        samples = instruction.waveform.samples()
        times = (start + np.arange(len(samples)) + 0.5) * dt
        # In the qubit's own rotating frame a drive detuned by delta has a
        # rotating envelope.  The library uses the conjugate (Y -> -Y)
        # convention throughout: envelope phase rotates as exp(+i*delta*t),
        # exchange terms as exp(-i*Delta_ij*t), pairing with the
        # +delta/2 Z term of the drive-frame CR formulation.
        rotated = samples * np.exp(
            1j * (frame.phase + frame.freq_shift * times)
        )
        rabi = g * rotated
        if include_stark:
            stark = (g * np.abs(samples)) ** 2 / (2 * params.alpha)
        else:
            stark = np.zeros(len(samples))
        steps = su2_propagator(
            0.5 * rabi.real, 0.5 * rabi.imag, -0.5 * stark, dt
        )
        for step in steps:
            unitary = step @ unitary
    return unitary


def schedule_drive_unitaries(
    schedule: Schedule,
    device: DeviceModel,
    qubits: Sequence[int],
    include_stark: bool = True,
) -> dict[int, np.ndarray]:
    """Per-qubit unitaries of a drive-channel-only schedule.

    Raises :class:`SimulatorError` if the schedule touches control
    channels (those need the entangling paths).
    """
    for channel in schedule.channels:
        if isinstance(channel, ControlChannel):
            raise SimulatorError(
                "schedule uses control channels; use cr_pair_propagator or "
                "the dense solver"
            )
    out: dict[int, np.ndarray] = {}
    for qubit in qubits:
        timeline = schedule.channel_timeline(DriveChannel(qubit))
        out[qubit] = drive_channel_propagator(
            timeline, device, qubit, include_stark
        )
    return out


# ---------------------------------------------------------------------------
# Cross-resonance pair evolution
# ---------------------------------------------------------------------------

def cr_pair_propagator(
    samples: np.ndarray,
    device: DeviceModel,
    control: int,
    target: int,
    phase: float = 0.0,
    freq_shift: float = 0.0,
    include_stark: bool = True,
) -> np.ndarray:
    """Propagator of a CR drive on ``control`` at (shifted) target frequency.

    Parameters
    ----------
    samples:
        Complex envelope samples of the control-channel pulse.
    phase, freq_shift:
        Software frame phase (rad) and frequency shift (GHz) of the
        control channel at the start of the pulse.

    Returns
    -------
    4x4 unitary in the two qubits' own rotating frames, little-endian with
    the **control** qubit as bit 0.

    Memoized on the device, keyed by the samples, the frame and the pair's
    physics (:func:`cr_physics`): calibration root solves and
    pulse-efficient width rescaling evaluate the same envelopes
    repeatedly, and pairs with equal physics share them.
    """
    samples = np.asarray(samples, dtype=complex)
    key = cache_key(
        "cr", cr_physics(device, control, target), phase, freq_shift,
        include_stark, samples,
    )
    cache = device_cache(device, "propagators")
    return cache.get_or_compute(
        key,
        lambda: _cr_pair_propagator(
            samples, device, control, target, phase, freq_shift, include_stark
        ),
    )


def _cr_pair_propagator(
    samples: np.ndarray,
    device: DeviceModel,
    control: int,
    target: int,
    phase: float,
    freq_shift: float,
    include_stark: bool,
) -> np.ndarray:
    coupling_ghz = device.coupling_strength(control, target)
    if coupling_ghz == 0.0:
        raise PulseError(
            f"qubits {control},{target} are not coupled; CR is ineffective"
        )
    qc = device.qubits[control]
    qt = device.qubits[target]
    dt = device.dt
    coupling = 2 * math.pi * coupling_ghz
    omega_d = qt.omega + 2 * math.pi * freq_shift
    delta_c = qc.omega - omega_d
    delta_t = qt.omega - omega_d
    g = 2 * math.pi * qc.drive_strength

    # a segment is a run of samples within 1e-12 of the run's first
    # sample, so the flat top is one segment
    values = samples.tolist()
    starts = [0] if values else []
    for k, value in enumerate(values):
        if not abs(value - values[starts[-1]]) < 1e-12:
            starts.append(k)
    firsts = [values[k] for k in starts]
    # per-segment drive terms stay Python scalars: numpy's array complex
    # product may fuse multiply-adds (its AVX2/AVX-512 loops do), and its
    # ``** 2`` squares where ``pow`` rounds; either moves the last bit
    rotation = np.exp(1j * phase)
    rabi = np.array([g * (s * rotation) for s in firsts], dtype=complex)
    # off-resonant Stark shift of the control qubit (level repulsion away
    # from the drive): shift = Omega^2 / (2 delta)
    stark = include_stark and abs(delta_c) > 1e-12
    stark_c = np.array(
        [(g * abs(s)) ** 2 / (2 * delta_c) if stark else 0.0 for s in firsts]
    )
    # H = +((delta_c + stark_c)/2) Z_c + (delta_t/2) Z_t
    #     + (J/2)(X_c X_t + Y_c Y_t) + (rabi_x/2) X_c + (rabi_y/2) Y_c
    # per segment, in the frame rotating at the drive frequency for both
    # qubits, in the library's conjugate convention (delta = omega_q -
    # omega_d); cross-validated against the own-frame dense solver
    hamiltonians = (
        ((delta_c + stark_c) / 2)[:, None, None] * _Z_C
        + delta_t / 2 * _Z_T
        + coupling / 2 * _XX_YY
        + (rabi.real / 2)[:, None, None] * _X_C
        + (rabi.imag / 2)[:, None, None] * _Y_C
    )
    eigvals, eigvecs = np.linalg.eigh(hamiltonians)
    runs = np.diff(starts + [len(values)])
    phases = np.exp(-1j * (runs * dt)[:, None] * eigvals)
    steps = (eigvecs * phases[:, None, :]) @ eigvecs.conj().swapaxes(1, 2)
    unitary = np.eye(4, dtype=complex)
    for step in steps:
        unitary = step @ unitary

    # back to the qubits' own rotating frames:
    # U_qubit = exp(+i (delta_q/2) T Z_q) U_drive in the conjugate
    # convention (delta_q = omega_q - omega_d)
    total_time = len(samples) * dt
    phase_c = np.exp(+1j * (delta_c / 2) * total_time * np.array([1, -1]))
    phase_t = np.exp(+1j * (delta_t / 2) * total_time * np.array([1, -1]))
    frame = np.kron(np.diag(phase_t), np.diag(phase_c))
    return frame @ unitary
