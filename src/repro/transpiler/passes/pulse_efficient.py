"""Pulse-efficient lowering of RZZ onto scaled cross-resonance pulses.

The Step-I "pulse-efficient construction for 2-qubit gates" of the paper's
Fig. 3 (following Earnest et al., PRResearch 2021): instead of compiling
``RZZ(gamma)`` into two full CX gates plus an RZ, drive a *single* echoed
cross-resonance pulse whose flat-top width is rescaled so its ZX angle
equals gamma, conjugated by Hadamards on the target::

    RZZ(gamma) = (I ⊗ H) RZX(gamma) (I ⊗ H)

For small gamma the duration saving over CX-CX is large (the CX pair pays
the full pi/2 width twice regardless of gamma).
"""

from __future__ import annotations

import math

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import PulseGate, standard_gate
from repro.circuits.parameter import ParameterExpression
from repro.exceptions import TranspilerError
from repro.hamiltonian.system import DeviceModel
from repro.pulsesim.calibration import CRCalibration, calibrate_cr, calibrate_x


class PulseEfficientRZZ:
    """Replace bound RZZ gates with scaled-CR pulse gates.

    Parameters
    ----------
    device:
        The physical device model (for CR calibration and simulation).
    cr_calibrations:
        Optional pre-computed calibrations per directed pair; missing
        pairs are calibrated lazily and cached.
    cr_amp:
        Drive amplitude used when calibrating new pairs.
    """

    def __init__(
        self,
        device: DeviceModel,
        cr_calibrations: dict[tuple[int, int], CRCalibration] | None = None,
        cr_amp: float = 0.9,
    ) -> None:
        self.device = device
        self.cr_calibrations = (
            dict(cr_calibrations) if cr_calibrations else {}
        )
        self.cr_amp = cr_amp
        self._unitary_cache: dict[tuple[tuple[int, int], float], tuple] = {}

    # ------------------------------------------------------------------
    def _calibration_for(self, control: int, target: int) -> CRCalibration:
        key = (control, target)
        if key not in self.cr_calibrations:
            if self.device.coupling_strength(control, target) == 0.0:
                raise TranspilerError(
                    f"cannot lower RZZ on uncoupled pair {key}"
                )
            self.cr_calibrations[key] = calibrate_cr(
                self.device,
                control,
                target,
                amp=self.cr_amp,
                x_calibration=calibrate_x(self.device, control),
            )
        return self.cr_calibrations[key]

    def scaled_rzx(
        self, control: int, target: int, theta: float
    ) -> tuple:
        """(unitary, duration) of the pulse RZX(theta) on the pair."""
        key = ((control, target), round(float(theta), 9))
        if key not in self._unitary_cache:
            calibration = self._calibration_for(control, target)
            self._unitary_cache[key] = calibration.scaled_unitary(
                self.device, float(theta)
            )
        return self._unitary_cache[key]

    # ------------------------------------------------------------------
    def __call__(self, circuit: QuantumCircuit, context=None) -> QuantumCircuit:
        out = QuantumCircuit(
            circuit.num_qubits, circuit.num_clbits, circuit.name
        )
        out.global_phase = circuit.global_phase
        out.calibrations = dict(circuit.calibrations)
        out.metadata = dict(circuit.metadata)
        for inst in circuit.instructions:
            op = inst.operation
            if op.name != "rzz":
                out.append(op, inst.qubits, inst.clbits)
                continue
            theta = op.params[0]
            if isinstance(theta, ParameterExpression):
                raise TranspilerError(
                    "PulseEfficientRZZ requires bound parameters; assign "
                    "values before running this pass"
                )
            control, target = inst.qubits
            # drive the pair in its calibrated direction if only one
            # direction is coupled in the device's channel map
            unitary, duration = self.scaled_rzx(control, target, theta)
            gate = PulseGate(
                schedule=None,
                num_qubits=2,
                label="rzx_pulse",
                params=[float(theta)],
            )
            gate.unitary = unitary
            gate.duration = duration
            # derived from the vendor CR calibration: actively stabilised,
            # exempt from the uncalibrated-pulse transfer jitter
            gate.calibrated = True
            out.append(standard_gate("h"), [target])
            out.append(gate, [control, target])
            out.append(standard_gate("h"), [target])
        return out
