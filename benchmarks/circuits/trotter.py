"""Trotterized transverse-field Ising evolution circuits.

Two generators:

* :func:`tfim_trotter` — second-order (Strang) product formula for
  ``H = -J sum Z_i Z_{i+1} - h sum X_i`` on a line.  The symmetric
  splitting surrounds every RZZ layer with half-angle RX layers, so
  adjacent steps expose back-to-back ``rx(h dt/2) . rx(h dt/2)`` pairs
  — exactly the structure rotation merging collapses.  This is the
  suite's ``basis_trotter`` entry.

* :func:`trotter_echo` — GHZ preparation followed by ``steps`` forward
  Trotter steps and their exact algebraic reverse.  The physical
  content is the Clifford GHZ prep; the echo is pure gate froth that a
  sound optimizer removes entirely, leaving a Clifford remnant — the
  suite's collapse probe.
"""

from __future__ import annotations

from repro.circuits import QuantumCircuit

__all__ = ["tfim_trotter", "trotter_echo"]


def tfim_trotter(
    num_qubits: int,
    steps: int = 3,
    dt: float = 0.15,
    coupling: float = 1.0,
    field: float = 0.7,
    measure: bool = True,
) -> QuantumCircuit:
    """Second-order Trotter circuit for the transverse-field Ising chain."""
    if num_qubits < 2:
        raise ValueError("tfim_trotter needs at least 2 qubits")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    qc = QuantumCircuit(num_qubits, name=f"basis_trotter_n{num_qubits}")
    half_rx = field * dt
    zz = 2.0 * coupling * dt
    for _ in range(steps):
        for q in range(num_qubits):
            qc.rx(half_rx, q)
        for q in range(num_qubits - 1):
            qc.rzz(zz, q, q + 1)
        for q in range(num_qubits):
            qc.rx(half_rx, q)
    if measure:
        qc.measure_all()
    return qc


def trotter_echo(
    num_qubits: int,
    steps: int = 2,
    dt: float = 0.15,
    coupling: float = 1.0,
    field: float = 0.7,
    measure: bool = True,
) -> QuantumCircuit:
    """GHZ prep + forward Trotter evolution + its exact reverse."""
    if num_qubits < 2:
        raise ValueError("trotter_echo needs at least 2 qubits")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    qc = QuantumCircuit(num_qubits, name=f"trotter_echo_n{num_qubits}")
    qc.h(0)
    for q in range(num_qubits - 1):
        qc.cx(q, q + 1)
    rx_angle = 2.0 * field * dt
    zz = 2.0 * coupling * dt
    for _ in range(steps):
        for q in range(num_qubits - 1):
            qc.rzz(zz, q, q + 1)
        for q in range(num_qubits):
            qc.rx(rx_angle, q)
    for _ in range(steps):
        for q in range(num_qubits):
            qc.rx(-rx_angle, q)
        for q in reversed(range(num_qubits - 1)):
            qc.rzz(-zz, q, q + 1)
    if measure:
        qc.measure_all()
    return qc
