"""The noisy-op lowering every engine back-end consumes.

:func:`_lower_noisy_ops` attaches the noise model to a circuit's ASAP
layers once: gate or pulse channels and the jitter flag per gate, each
active qubit's relaxation on timed layers and the ZZ angle.
:func:`_readout_relaxation` adds the measure window and the measured
qubits' relaxation.  These tests pin both against the noise model's own
lookups.
"""

import math

import numpy as np
import pytest

from repro.backends.engine import (
    _CircuitPlan,
    _lower_noisy_ops,
    _noise_touches_state,
    _readout_relaxation,
)
from repro.backends.target import DEFAULT_DT, QubitProperties, Target
from repro.circuits import QuantumCircuit
from repro.circuits.gates import Delay, PulseGate
from repro.noise import NoiseModel
from repro.noise.channels import depolarizing_channel
from repro.transpiler import CouplingMap

#: unequal readout lengths (ns), so the measure window is a maximum
READOUT_LENGTHS = (750.0, 1210.5, 980.0, 1333.3)

#: the qubit left without T1/T2
NO_T1 = 2


def target():
    return Target(
        4,
        CouplingMap.from_line(4),
        qubit_properties=[
            QubitProperties(
                t1=100_000.0,
                t2=80_000.0,
                frequency=5.0,
                readout_error=0.01,
                readout_length=length,
            )
            for length in READOUT_LENGTHS
        ],
    )


def noise_model(zz=0.0):
    noise = NoiseModel(4)
    noise.set_relaxation(
        [90_000.0, 70_000.0, 60_000.0, 50_000.0],
        [60_000.0, 50_000.0, 40_000.0, 30_000.0],
        DEFAULT_DT,
    )
    noise.t1[NO_T1] = noise.t2[NO_T1] = None
    noise.add_depolarizing_error("sx", 0.01)
    noise.add_gate_error("cx", depolarizing_channel(0.02, 2))
    noise.add_gate_error("cx", depolarizing_channel(0.03, 2), qubits=(1, 2))
    noise.pulse_error_per_dt_1q = 1e-5
    noise.pulse_error_per_dt_2q = 2e-5
    noise.pulse_jitter_local = 0.01
    noise.pulse_jitter_entangling = 0.02
    noise.zz_crosstalk_ghz = zz
    return noise


def pulse_gate(num_qubits, duration, calibrated):
    gate = PulseGate(schedule=None, num_qubits=num_qubits, label="pulse")
    gate.unitary = np.eye(1 << num_qubits, dtype=complex)
    gate.duration = duration
    gate.calibrated = calibrated
    return gate


def circuit():
    """Layer 0 takes no time (``rz`` only); layer 1 holds a Delay beside
    library gates; layer 2 an uncalibrated 1-qubit pulse, a calibrated
    2-qubit pulse and a gate without channels."""
    qc = QuantumCircuit(4, 4)
    for q in range(4):
        qc.rz(0.1 * (q + 1), q)
    qc.sx(0)
    qc.cx(1, 2)
    qc.delay(400, 3)
    qc.append(pulse_gate(1, 320, calibrated=False), [0])
    qc.append(pulse_gate(2, 800, calibrated=True), [1, 2])
    qc.x(3)
    qc.measure_all()
    return qc


def lowered(noise):
    plan = _CircuitPlan(circuit(), target())
    return plan, list(_lower_noisy_ops(plan, plan.circuit, noise, plan.target))


def test_circuit_covers_every_case():
    plan, _ = lowered(None)
    assert plan.layer_durations[0] == 0
    assert all(duration > 0 for duration in plan.layer_durations[1:])
    kinds = [
        type(plan.circuit.instructions[i].operation)
        for layer in plan.layers
        for i in layer
    ]
    assert Delay in kinds and PulseGate in kinds


@pytest.mark.parametrize("zz", [0.0, 2e-4])
def test_gates_match_the_noise_model(zz):
    noise = noise_model(zz)
    plan, layers = lowered(noise)
    assert len(layers) == len(plan.layers)
    for lowered_layer, layer in zip(layers, plan.layers):
        instructions = [
            (i, plan.circuit.instructions[i])
            for i in layer
            if not isinstance(plan.circuit.instructions[i].operation, Delay)
        ]
        assert [gate.index for gate in lowered_layer.gates] == [
            i for i, _inst in instructions
        ]
        for gate, (_i, inst) in zip(lowered_layer.gates, instructions):
            op = inst.operation
            assert gate.instruction is inst
            assert gate.qubits == tuple(plan.local[q] for q in inst.qubits)
            if isinstance(op, PulseGate):
                channel = noise.pulse_gate_channel(op.num_qubits, op.duration)
                assert channel is not None
                assert gate.channels == (channel,)
                assert gate.jitter is (not op.calibrated)
            else:
                assert gate.channels == tuple(
                    noise.gate_channels(op.name, inst.qubits)
                )
                assert gate.jitter is False
    # the cx picks up its generic and its qubit-specific channel
    assert [len(gate.channels) for gate in layers[1].gates] == [1, 2]
    assert [gate.jitter for gate in layers[2].gates] == [True, False, False]


@pytest.mark.parametrize("zz", [0.0, 2e-4])
def test_relaxation_and_zz_only_on_timed_layers(zz):
    noise = noise_model(zz)
    plan, layers = lowered(noise)
    for lowered_layer, duration in zip(layers, plan.layer_durations):
        if duration == 0:
            assert lowered_layer.relaxations == ()
            assert lowered_layer.zz_angle is None
            continue
        assert lowered_layer.relaxations == tuple(
            noise.relaxation_channel(q, duration) for q in plan.active_list
        )
        assert lowered_layer.relaxations[plan.local[NO_T1]] is None
        assert all(
            channel is not None
            for q, channel in enumerate(lowered_layer.relaxations)
            if q != plan.local[NO_T1]
        )
        if zz:
            assert lowered_layer.zz_angle == (
                2 * math.pi * zz * duration * plan.target.dt
            )
        else:
            assert lowered_layer.zz_angle is None


def test_without_a_noise_model_nothing_is_attached():
    plan, layers = lowered(None)
    assert [len(layer.gates) for layer in layers] == [4, 2, 3]
    for layer in layers:
        assert layer.relaxations == ()
        assert layer.zz_angle is None
        assert all(
            gate.channels == () and gate.jitter is False
            for gate in layer.gates
        )


def test_measure_window_is_the_per_qubit_maximum():
    tgt = target()
    durations = [tgt.duration("measure", (q,)) for q in range(4)]
    assert len(set(durations)) == 4
    noise = noise_model()
    for measured in ((0,), (0, 2), (2, 0, 3), (1, 3), (0, 1, 2, 3)):
        qc = QuantumCircuit(4, 4)
        qc.h(0)
        for clbit, q in enumerate(measured):
            qc.measure(q, clbit)
        plan = _CircuitPlan(qc, tgt)
        window, relaxations = _readout_relaxation(plan, noise)
        assert window == max(durations[q] for q in measured)
        # the measured qubits relax for half the window
        effective = int(window * 0.5)
        assert relaxations == [
            (plan.local[q], noise.relaxation_channel(q, effective))
            for q in measured
            if q != NO_T1
        ]
        assert _readout_relaxation(plan, None) == (window, [])


def test_noise_touches_state_reads_the_lowered_gates():
    def plan_of(gate, qubits):
        qc = QuantumCircuit(2, 2)
        qc.append(gate, qubits)
        qc.measure_all()
        return _CircuitPlan(qc, target())

    single = plan_of(pulse_gate(1, 320, calibrated=False), [0])
    pair = plan_of(pulse_gate(2, 800, calibrated=False), [0, 1])
    calibrated_pair = plan_of(pulse_gate(2, 800, calibrated=True), [0, 1])

    def touches(plan, **values):
        noise = NoiseModel(4)
        for name, value in values.items():
            setattr(noise, name, value)
        return _noise_touches_state(plan, noise)

    for plan in (single, pair, calibrated_pair):
        assert not touches(plan)
        assert touches(plan, zz_crosstalk_ghz=1e-4)
    # a pulse gate attracts the pulse channel of its own width only
    assert touches(single, pulse_error_per_dt_1q=1e-5)
    assert not touches(single, pulse_error_per_dt_2q=1e-5)
    assert touches(calibrated_pair, pulse_error_per_dt_2q=1e-5)
    # local kicks reach every uncalibrated pulse gate, the entangling
    # kick only a 2-qubit one; a calibrated pulse gate draws none
    assert touches(single, pulse_jitter_local=0.01)
    assert not touches(single, pulse_jitter_entangling=0.02)
    assert touches(pair, pulse_jitter_entangling=0.02)
    assert not touches(
        calibrated_pair, pulse_jitter_local=0.01, pulse_jitter_entangling=0.02
    )
