"""Repetition-code syndrome-extraction circuits for the transpiler suite.

The generator follows the ``qec_en_nX`` shape from the standard QASM
benchmark suites — encode a logical qubit, then extract every stabilizer
of the code onto fresh ancillas — parameterised in code distance and
rounds.

Layout for distance ``d`` with ``r`` rounds:

- data qubits ``0 .. d-1`` hold the logical state (|+> encoded across
  the chain with H + a CX ladder, so both X and Z noise scramble the
  syndrome distribution);
- each round gets ``d-1`` *fresh* ancillas (the engine measures only at
  the end of the circuit, so mid-circuit ancilla reuse is out — fresh
  ancillas per round give the standard multi-round shape with terminal
  measurement);
- ancilla ``j`` of a round couples to data ``j`` and ``j+1`` (CX data ->
  ancilla), measuring the Z_j Z_{j+1} parity check;
- only ancillas are measured: ``r * (d - 1)`` classical bits.

Everything is Clifford (h/cx).  The suite's ``qec_d5`` entry has 13
qubits; the engine runs a circuit of up to 26 qubits noiselessly on the
statevector and up to 14 under noise on the density matrix.
"""

from __future__ import annotations

from repro.circuits import QuantumCircuit

__all__ = [
    "repetition_syndrome_circuit",
    "syndrome_qubit_count",
    "syndrome_measured_count",
]


def syndrome_qubit_count(distance: int, rounds: int = 1) -> int:
    """Total qubits: ``distance`` data + ``rounds * (distance-1)`` ancillas."""
    return distance + rounds * (distance - 1)


def syndrome_measured_count(distance: int, rounds: int = 1) -> int:
    """Measured (ancilla) qubits: ``rounds * (distance - 1)``."""
    return rounds * (distance - 1)


def repetition_syndrome_circuit(
    distance: int, rounds: int = 1
) -> QuantumCircuit:
    """Distance-``distance`` repetition-code syndrome extraction.

    Returns a Clifford circuit on
    :func:`syndrome_qubit_count` qubits measuring
    :func:`syndrome_measured_count` ancillas (data qubits are left
    unmeasured, as on hardware).  ``distance=51, rounds=1`` gives the
    101-qubit / 50-bit shape used by the packed-kernel benchmark.
    """
    if distance < 2:
        raise ValueError("repetition code needs distance >= 2")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    num_qubits = syndrome_qubit_count(distance, rounds)
    num_measured = syndrome_measured_count(distance, rounds)
    circuit = QuantumCircuit(num_qubits, num_measured)
    # encode |+_L>: H on the first data qubit, CX ladder down the chain
    circuit.h(0)
    for data in range(distance - 1):
        circuit.cx(data, data + 1)
    # syndrome extraction: each round couples its own fresh ancillas.
    # All measures go at the very end: the engine only supports
    # terminal measurement, and keeping the instruction list free of
    # mid-circuit measures lets routing insert SWAPs anywhere without
    # re-using an already-measured physical wire.
    clbit = 0
    for round_index in range(rounds):
        base = distance + round_index * (distance - 1)
        for check in range(distance - 1):
            ancilla = base + check
            circuit.cx(check, ancilla)
            circuit.cx(check + 1, ancilla)
    for round_index in range(rounds):
        base = distance + round_index * (distance - 1)
        for check in range(distance - 1):
            circuit.measure(base + check, clbit)
            clbit += 1
    return circuit
