"""The three QAOA model families compared in the paper.

* :class:`GateLevelModel` — standard gate-level QAOA (the baseline of
  Table II): RZZ Hamiltonian layer + RX mixer, both compiled to native
  gates.
* :class:`HybridGatePulseModel` — the paper's contribution: the
  problem-encoding Hamiltonian layer stays at gate level (calibrated RZZ
  structure), the problem-agnostic mixer is replaced by a parametric
  native pulse per qubit with trainable amplitude, phase and frequency
  shift (bounds |amp| <= 1, phase in [0, 2 pi), shift in +-100 MHz —
  §IV-A).
* :class:`PulseLevelModel` — the VQP-like baseline: the Hamiltonian layer
  also becomes trainable cross-resonance pulses, losing the fixed
  Z_i Z_j structure and inflating the parameter space (the reason for its
  slower convergence in Fig. 5).

All models expose ``build_circuit(values) -> QuantumCircuit`` producing a
fully bound logical circuit with terminal measurements, plus bounds and
initial points for the optimizer.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import PulseGate
from repro.exceptions import ProblemError
from repro.hamiltonian.system import DeviceModel
from repro.problems.maxcut import MaxCutProblem
from repro.pulse.channels import DriveChannel
from repro.pulse.instructions import Play, ShiftFrequency
from repro.pulse.schedule import Schedule
from repro.pulse.waveforms import GAUSSIAN_GRANULARITY, Gaussian
from repro.utils.cache import cache_key, device_cache
from repro.utils.rng import as_generator

#: frequency-modulation bound of the hybrid model: +-100 MHz (paper §IV-A2)
FREQ_BOUND_GHZ = 0.1
#: frequency parameters are optimised in units of FREQ_BOUND_GHZ so all
#: coordinates share a comparable scale for COBYLA's simplex steps
FREQ_UNIT = FREQ_BOUND_GHZ
#: initial (uncompressed) mixer pulse duration: matches the 2 x 160 dt
#: cost of the gate-level RX mixer
DEFAULT_MIXER_DURATION = 320


class QAOAModelBase:
    """Common interface of the QAOA model families."""

    name = "qaoa-model"

    def __init__(self, problem: MaxCutProblem, p: int = 1) -> None:
        if p < 1:
            raise ProblemError("QAOA level p must be >= 1")
        self.problem = problem
        self.p = p
        self.num_qubits = problem.num_nodes

    @property
    def num_parameters(self) -> int:
        return len(self.bounds())

    def bounds(self) -> list[tuple[float, float]]:
        raise NotImplementedError

    def initial_point(
        self, seed: int | None | np.random.Generator = None
    ) -> np.ndarray:
        raise NotImplementedError

    def build_circuit(self, values: Sequence[float]) -> QuantumCircuit:
        raise NotImplementedError

    def mixer_duration(self, target) -> int:
        """Wall-clock mixer-layer duration in samples on ``target``."""
        raise NotImplementedError

    def _check(self, values: Sequence[float]) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.num_parameters,):
            raise ProblemError(
                f"{self.name} expects {self.num_parameters} parameters, "
                f"got {values.shape}"
            )
        return values

    def _hamiltonian_layer(
        self, qc: QuantumCircuit, gamma: float
    ) -> None:
        for a, b, weight in self.problem.edges:
            qc.rzz(gamma * weight, a, b)


class GateLevelModel(QAOAModelBase):
    """Standard gate-level QAOA: parameters [gamma_l..., beta_l...]."""

    name = "gate"

    def bounds(self) -> list[tuple[float, float]]:
        return [(0.0, 2 * math.pi)] * self.p + [(0.0, math.pi)] * self.p

    def initial_point(self, seed=None) -> np.ndarray:
        rng = as_generator(seed)
        gammas = rng.uniform(0.3, 1.2, self.p)
        betas = rng.uniform(0.2, 0.8, self.p)
        return np.concatenate([gammas, betas])

    def build_circuit(self, values: Sequence[float]) -> QuantumCircuit:
        values = self._check(values)
        gammas, betas = values[: self.p], values[self.p:]
        qc = QuantumCircuit(self.num_qubits, name="gate_qaoa")
        for q in range(self.num_qubits):
            qc.h(q)
        for layer in range(self.p):
            self._hamiltonian_layer(qc, float(gammas[layer]))
            qc.barrier()
            for q in range(self.num_qubits):
                qc.rx(2 * float(betas[layer]), q)
            if layer < self.p - 1:
                qc.barrier()
        qc.measure_all()
        return qc

    def mixer_duration(self, target) -> int:
        # RX lowers to RZ-SX-RZ-SX-RZ: two physical sx pulses
        return 2 * target.duration("sx")


class HybridGatePulseModel(QAOAModelBase):
    """Gate-level Hamiltonian layer + native-pulse mixer (the paper's model).

    Parameters per layer: ``gamma`` then the mixer block — shared
    ``(amp, phase, freq)`` when ``share_mixer_params`` (default, 1+3
    parameters/layer), or per-qubit triples otherwise (1+3n/layer).
    """

    name = "hybrid"

    def __init__(
        self,
        problem: MaxCutProblem,
        device: DeviceModel,
        p: int = 1,
        mixer_duration: int = DEFAULT_MIXER_DURATION,
        share_mixer_params: bool = True,
    ) -> None:
        super().__init__(problem, p)
        self.device = device
        self.share_mixer_params = share_mixer_params
        self.set_mixer_duration(mixer_duration)

    # -- duration handling --------------------------------------------------
    def set_mixer_duration(self, duration: int) -> None:
        if duration % GAUSSIAN_GRANULARITY:
            raise ProblemError(
                f"mixer duration {duration} is not a multiple of "
                f"{GAUSSIAN_GRANULARITY} dt"
            )
        self._mixer_duration = int(duration)

    @property
    def mixer_pulse_duration(self) -> int:
        return self._mixer_duration

    def mixer_sigma(self) -> float:
        return self._mixer_duration / 4

    def _unit_area_ns(self, duration: int | None = None) -> float:
        duration = duration or self._mixer_duration
        pulse = Gaussian(duration, 1.0, duration / 4)
        return float(pulse.area().real) * self.device.dt

    def max_mixer_rotation(self, duration: int | None = None) -> float:
        """Largest rotation angle reachable at amp = 1 (rad)."""
        strength = min(
            q.drive_strength for q in self.device.qubits[: self.num_qubits]
        )
        return 2 * math.pi * strength * self._unit_area_ns(duration)

    def amp_for_rotation(
        self, angle: float, duration: int | None = None
    ) -> float:
        """Pulse amplitude whose area gives a rotation of ``angle``."""
        max_angle = self.max_mixer_rotation(duration)
        if angle > max_angle:
            raise ProblemError(
                f"rotation {angle:.3f} rad infeasible at duration "
                f"{duration or self._mixer_duration} dt "
                f"(max {max_angle:.3f})"
            )
        return angle / max_angle

    # -- parameter layout ----------------------------------------------------
    def _mixer_block_size(self) -> int:
        return 3 if self.share_mixer_params else 3 * self.num_qubits

    def bounds(self) -> list[tuple[float, float]]:
        out: list[tuple[float, float]] = []
        for _ in range(self.p):
            out.append((0.0, 2 * math.pi))  # gamma
            blocks = 1 if self.share_mixer_params else self.num_qubits
            for _ in range(blocks):
                out.append((0.0, 1.0))  # amp
                out.append((0.0, 2 * math.pi))  # phase
                out.append((-1.0, 1.0))  # freq shift, units of 100 MHz
        return out

    def initial_point(self, seed=None) -> np.ndarray:
        rng = as_generator(seed)
        out: list[float] = []
        amp_beta = self.amp_for_rotation(
            min(0.8, self.max_mixer_rotation() * 0.25)
        )
        for _ in range(self.p):
            out.append(float(rng.uniform(0.3, 1.2)))  # gamma
            blocks = 1 if self.share_mixer_params else self.num_qubits
            for _ in range(blocks):
                out.append(amp_beta * float(rng.uniform(0.8, 1.2)))
                out.append(float(rng.uniform(-0.3, 0.3)) % (2 * math.pi))
                out.append(float(rng.normal(0.0, 0.05)))
        return np.asarray(out)

    # -- circuit construction -----------------------------------------------
    def _mixer_pulse_gate(
        self, amp: float, phase: float, freq_units: float
    ) -> PulseGate:
        channel = DriveChannel(0)  # gate-local channel convention
        freq = FREQ_UNIT * float(np.clip(freq_units, -1.0, 1.0))
        schedule = Schedule(name="mixer")
        if freq:
            schedule.append(ShiftFrequency(freq, channel))
        schedule.append(
            Play(
                Gaussian(
                    self._mixer_duration,
                    min(1.0, max(0.0, amp)),
                    self.mixer_sigma(),
                    angle=phase,
                ),
                channel,
            )
        )
        if freq:
            schedule.append(ShiftFrequency(-freq, channel))
        gate = PulseGate(
            schedule,
            num_qubits=1,
            label="mixer_pulse",
            params=[amp, phase, freq],
        )
        gate.duration = self._mixer_duration
        return gate

    def build_circuit(self, values: Sequence[float]) -> QuantumCircuit:
        values = self._check(values)
        qc = QuantumCircuit(self.num_qubits, name="hybrid_qaoa")
        for q in range(self.num_qubits):
            qc.h(q)
        cursor = 0
        for layer in range(self.p):
            gamma = float(values[cursor])
            cursor += 1
            self._hamiltonian_layer(qc, gamma)
            qc.barrier()
            if self.share_mixer_params:
                amp, phase, freq = values[cursor: cursor + 3]
                cursor += 3
                for q in range(self.num_qubits):
                    qc.append(
                        self._mixer_pulse_gate(amp, phase, freq), [q]
                    )
            else:
                for q in range(self.num_qubits):
                    amp, phase, freq = values[cursor: cursor + 3]
                    cursor += 3
                    qc.append(
                        self._mixer_pulse_gate(amp, phase, freq), [q]
                    )
            if layer < self.p - 1:
                qc.barrier()
        qc.measure_all()
        return qc

    def mixer_duration(self, target) -> int:
        return self._mixer_duration

    def rescaled_parameters(
        self, values: Sequence[float], new_duration: int
    ) -> np.ndarray:
        """Adapt trained parameters to a new mixer duration.

        Rotation angles are first canonicalised into [0, pi] (a rotation
        of ``theta > pi`` equals ``2 pi - theta`` about the opposite
        axis), then pulse amplitudes rescale by the inverse area ratio so
        every mixer rotation is preserved; raises if a needed amplitude
        exceeds 1 (duration infeasible).
        """
        values = self._check(values).copy()
        max_old = self.max_mixer_rotation()
        max_new = self.max_mixer_rotation(new_duration)
        cursor = 0
        for _ in range(self.p):
            cursor += 1  # gamma
            blocks = 1 if self.share_mixer_params else self.num_qubits
            for _ in range(blocks):
                angle = values[cursor] * max_old
                phase = values[cursor + 1]
                angle = angle % (2 * math.pi)
                if angle > math.pi:
                    angle = 2 * math.pi - angle
                    phase = (phase + math.pi) % (2 * math.pi)
                new_amp = angle / max_new
                if new_amp > 1.0 + 1e-9:
                    raise ProblemError(
                        f"duration {new_duration} dt needs amp "
                        f"{new_amp:.3f} > 1"
                    )
                values[cursor] = min(1.0, new_amp)
                values[cursor + 1] = phase
                cursor += 3
        return values


class PulseLevelModel(QAOAModelBase):
    """Fully pulse-level QAOA baseline (VQP-style, paper Fig. 5).

    Mirrors how the paper builds its pulse-level comparison: the model is
    *initialised from the compiled gate-level circuit* — every RZZ is the
    usual CX-RZ-CX sandwich, with each CX realised by its echoed-CR pulse
    schedule — and then every pulse parameter becomes trainable.  Per
    edge that is (gamma, cx amp-scale, cx phase, cx freq-shift); per
    qubit the mixer triple (amp, phase, freq).  The fixed Z_i Z_j
    structure is only preserved while the CX pulses stay at their
    calibration point, so optimisation "gradually loses" it, the
    parameter space grows to ``p * (4|E| + 3n)``, and — unlike the hybrid
    model — the Hamiltonian layer keeps the full CX-pair duration.
    """

    name = "pulse"

    def __init__(
        self,
        problem: MaxCutProblem,
        backend,
        p: int = 1,
        mixer_duration: int = DEFAULT_MIXER_DURATION,
    ) -> None:
        super().__init__(problem, p)
        self.backend = backend
        self.device = backend.device
        self._hybrid_helper = HybridGatePulseModel(
            problem,
            self.device,
            p=1,
            mixer_duration=mixer_duration,
            share_mixer_params=False,
        )
        # per physical (control, target) pair: (calibration, fixed
        # local-correction unitary, virtual-Z pre and post phases,
        # calibrated cx duration)
        self._edge_cx: dict[tuple[int, int], tuple] = {}

    # -- parameter layout -----------------------------------------------------
    def bounds(self) -> list[tuple[float, float]]:
        out: list[tuple[float, float]] = []
        for _ in range(self.p):
            for _ in self.problem.edges:
                out.append((0.0, 2 * math.pi))  # gamma (rz between CXs)
                out.append((0.2, 1.0))  # CX-pulse amp scale
                out.append((0.0, 2 * math.pi))  # CX-pulse phase
                out.append((-1.0, 1.0))  # CX-pulse freq, 100 MHz units
            for _ in range(self.num_qubits):
                out.append((0.0, 1.0))  # mixer amp
                out.append((0.0, 2 * math.pi))  # mixer phase
                out.append((-1.0, 1.0))  # mixer freq, 100 MHz units
        return out

    def initial_point(self, seed=None) -> np.ndarray:
        rng = as_generator(seed)
        out: list[float] = []
        helper = self._hybrid_helper
        amp_beta = helper.amp_for_rotation(
            min(0.8, helper.max_mixer_rotation() * 0.25)
        )
        for _ in range(self.p):
            for _ in self.problem.edges:
                out.append(float(rng.uniform(0.3, 1.2)))  # gamma
                # near the calibrated CX point but already drifting: the
                # moment every pulse parameter is trainable the exact
                # Z_i Z_j structure is no longer protected (the paper's
                # "loss of gate-level knowledge")
                out.append(float(rng.uniform(0.85, 1.0)))
                out.append(float(rng.uniform(-0.25, 0.25)) % (2 * math.pi))
                out.append(float(rng.normal(0.0, 0.05)))
            for _ in range(self.num_qubits):
                out.append(amp_beta * float(rng.uniform(0.8, 1.2)))
                out.append(float(rng.uniform(-0.3, 0.3)) % (2 * math.pi))
                out.append(float(rng.normal(0.0, 0.05)))
        return np.asarray(out)

    # -- pulse construction ----------------------------------------------------
    def _physical_pair(self, a: int, b: int) -> tuple[int, int]:
        if self.device.coupling_strength(a, b) > 0:
            return a, b
        # an uncoupled edge borrows the device's first coupled pair
        for i, j in self.device.coupled_pairs():
            return i, j
        raise ProblemError("device has no coupled pairs")

    def _edge_base(self, a: int, b: int):
        """CX-pulse ingredients of an edge, calibrated once per physical
        pair (:meth:`_physical_pair`) and cached.

        The cached record also holds the virtual-Z phase corrections the
        vendor calibration folds into the CX schedule; they are *fixed*
        at the calibration point (the optimizer moves the physical drive
        parameters, not the software phase bookkeeping).  Their
        Nelder-Mead solve is memoized on the device, keyed by the echo
        and target matrices it reads, so pairs with equal physics (and
        later models on the same device) share it.
        """
        key = self._physical_pair(a, b)
        if key not in self._edge_cx:
            control, target = key
            calibration = self.backend.cr_calibration(control, target)
            from repro.pulsesim.calibration import (
                _rz_diag,
                calibrate_rotation,
                virtual_z_corrected,
            )

            sx_minus = calibrate_rotation(
                self.device, target, math.pi / 2, phase=math.pi
            )
            rz_c = np.diag(
                [np.exp(1j * math.pi / 4), np.exp(-1j * math.pi / 4)]
            )
            local = np.kron(sx_minus.unitary, rz_c)
            echo_cal = calibration.echoed_unitary(
                self.device, calibration.width_pi_2, phase=math.pi
            )
            from repro.circuits.gates import standard_gate

            rzx_target = standard_gate("rzx", [math.pi / 2]).matrix()
            angles = device_cache(
                self.device, "calibrations", maxsize=256
            ).get_or_compute(
                cache_key("virtual_z", echo_cal, rzx_target),
                lambda: virtual_z_corrected(echo_cal, rzx_target)[2],
            )
            post = np.kron(_rz_diag(angles[1]), _rz_diag(angles[0]))
            pre = np.kron(_rz_diag(angles[3]), _rz_diag(angles[2]))
            duration = (
                calibration.total_duration(calibration.width_pi_2)
                + sx_minus.duration
            )
            self._edge_cx[key] = (calibration, local, pre, post, duration)
        return self._edge_cx[key]

    def _cx_pulse_gate(
        self,
        a: int,
        b: int,
        amp_scale: float,
        phase: float,
        freq_units: float,
    ) -> PulseGate:
        """One CX realised as pulses, with trainable drive parameters.

        At (amp_scale=1, phase=0, freq=0) this is exactly the calibrated
        CX; away from that point the entangling angle, axis and frames
        all drift — there is no vendor calibration holding it in place.
        """
        calibration, local, pre, post, duration = self._edge_base(a, b)
        echo = calibration.echoed_unitary(
            self.device,
            calibration.width_pi_2,
            phase=math.pi + phase,  # phase=0 is the +ZX point
            amp_scale=float(np.clip(amp_scale, 0.0, 1.0)),
            freq_shift=FREQ_UNIT * float(np.clip(freq_units, -1.0, 1.0)),
        )
        gate = PulseGate(
            schedule=None,
            num_qubits=2,
            label="cx_pulse",
            params=[amp_scale, phase, freq_units],
        )
        # echo correction phases are fixed at the calibration point;
        # local corrections then turn RZX(pi/2) into CX
        gate.unitary = local @ ((post[:, None] * echo) * pre[None, :])
        gate.duration = duration
        return gate

    def build_circuit(self, values: Sequence[float]) -> QuantumCircuit:
        values = self._check(values)
        qc = QuantumCircuit(self.num_qubits, name="pulse_qaoa")
        for q in range(self.num_qubits):
            qc.h(q)
        cursor = 0
        helper = self._hybrid_helper
        for layer in range(self.p):
            for a, b, weight in self.problem.edges:
                gamma, amp_scale, phase, freq_units = values[
                    cursor: cursor + 4
                ]
                cursor += 4
                cx_gate = self._cx_pulse_gate(
                    a, b, amp_scale, phase, freq_units
                )
                qc.append(cx_gate, [a, b])
                qc.rz(float(gamma) * weight, b)
                qc.append(cx_gate, [a, b])
            qc.barrier()
            for q in range(self.num_qubits):
                amp, phase, freq = values[cursor: cursor + 3]
                cursor += 3
                qc.append(
                    helper._mixer_pulse_gate(amp, phase, freq), [q]
                )
            if layer < self.p - 1:
                qc.barrier()
        qc.measure_all()
        return qc

    def mixer_duration(self, target) -> int:
        return self._hybrid_helper.mixer_pulse_duration
