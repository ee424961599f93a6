"""Equivalence verification for transpiled circuits.

Every optimized circuit the benchmark reports (and every pipeline the
gauntlet tests exercise) is gated through these checks:

* :func:`transpiled_unitary_equivalent` — exact process-level check.
  The original circuit is embedded at the transpiled circuit's
  ``initial_layout``, the routing permutation (initial → final layout)
  is applied as a basis-index permutation, and the two unitaries are
  compared by process fidelity.  Exponential in width — use for small
  circuits.

* :func:`transpiled_distribution_equivalent` — exact comparison of the
  measured output distributions via statevector simulation.  Costs one
  ``2**n`` vector per circuit instead of a ``4**n`` matrix, so it
  stretches to ~20 qubits.

* :func:`transpiled_counts_equivalent` — fixed-seed sampling check
  through the execution engine for circuits too wide for either exact
  check.  Identical output distributions plus a shared seed give
  byte-identical counts — for *sparse* structured distributions; dense
  continuous-spectrum distributions decorrelate (one flipped
  sequential multinomial draw cascades), which is exactly why the
  distribution tier above exists.

* :func:`verify_transpiled` — picks the strongest affordable check and
  returns a small report dict (used verbatim by ``bench_transpiler``).
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Measure
from repro.simulators.statevector import simulate_statevector
from repro.simulators.unitary import circuit_to_unitary
from repro.transpiler.coupling import CouplingMap
from repro.utils.linalg import process_fidelity

#: widest circuit verified by explicit unitary construction
MAX_UNITARY_QUBITS = 9

#: widest circuit verified by exact output-distribution comparison
MAX_DISTRIBUTION_QUBITS = 20


def _layouts(transpiled: QuantumCircuit) -> tuple[dict[int, int], dict[int, int]]:
    initial = transpiled.metadata.get("initial_layout")
    final = transpiled.metadata.get("final_layout")
    if initial is None:
        initial = {q: q for q in range(transpiled.num_qubits)}
    if final is None:
        final = dict(initial)
    return dict(initial), dict(final)


def _embed(original: QuantumCircuit, layout: dict[int, int], width: int) -> QuantumCircuit:
    embedded = QuantumCircuit(width, original.num_clbits)
    embedded.global_phase = original.global_phase
    for inst in original.instructions:
        embedded.append(
            inst.operation,
            [layout[q] for q in inst.qubits],
            inst.clbits,
        )
    return embedded


def _permutation_matrix(perm: dict[int, int], width: int) -> np.ndarray:
    full = {q: q for q in range(width)}
    full.update(perm)
    dim = 1 << width
    rows = np.empty(dim, dtype=np.int64)
    for idx in range(dim):
        out_idx = 0
        for src in range(width):
            out_idx |= ((idx >> src) & 1) << full[src]
        rows[idx] = out_idx
    matrix = np.zeros((dim, dim), dtype=complex)
    matrix[rows, np.arange(dim)] = 1.0
    return matrix


def transpiled_unitary_equivalent(
    original: QuantumCircuit,
    transpiled: QuantumCircuit,
    tol: float = 1e-9,
) -> bool:
    """Process-fidelity check, accounting for layout permutations."""
    initial, final = _layouts(transpiled)
    width = transpiled.num_qubits
    u_transpiled = circuit_to_unitary(transpiled.remove_final_measurements())
    embedded = _embed(original.remove_final_measurements(), initial, width)
    u_expected = circuit_to_unitary(embedded)
    perm = {initial[w]: final[w] for w in initial}
    u_expected = _permutation_matrix(perm, width) @ u_expected
    return process_fidelity(u_transpiled, u_expected) > 1.0 - tol


def _measured_distribution(circuit: QuantumCircuit) -> np.ndarray:
    """Exact probability vector over the circuit's classical bits.

    Marginalising onto the measured qubits (keyed by clbit) makes the
    result layout-independent: routing rewrites measures to physical
    qubits but preserves the clbit wiring, so original and transpiled
    circuits project onto the same classical register.  Circuits
    without measurements compare their full qubit distributions
    instead (only meaningful when widths match).
    """
    pairs = [
        (inst.clbits[0], inst.qubits[0])
        for inst in circuit.instructions
        if isinstance(inst.operation, Measure)
    ]
    probs = simulate_statevector(
        circuit.remove_final_measurements()
    ).probabilities()
    if not pairs:
        return np.asarray(probs)
    index = np.arange(len(probs))
    out_index = np.zeros_like(index)
    for clbit, qubit in pairs:
        out_index |= ((index >> qubit) & 1) << clbit
    marginal = np.zeros(1 << (max(c for c, _ in pairs) + 1))
    np.add.at(marginal, out_index, np.asarray(probs))
    return marginal


def transpiled_distribution_equivalent(
    original: QuantumCircuit,
    transpiled: QuantumCircuit,
    tol: float = 1e-9,
) -> bool:
    """Exact measured-distribution equality via statevector simulation.

    Weaker than the unitary check (it only sees what measurement sees)
    but exact — unlike fixed-seed sampling — and affordable to
    :data:`MAX_DISTRIBUTION_QUBITS` widths.
    """
    dist_original = _measured_distribution(original)
    dist_transpiled = _measured_distribution(transpiled)
    if len(dist_original) != len(dist_transpiled):
        return False
    return float(
        0.5 * np.sum(np.abs(dist_original - dist_transpiled))
    ) <= tol


def _total_variation(counts_a: dict, counts_b: dict, shots: int) -> float:
    keys = set(counts_a) | set(counts_b)
    diff = sum(abs(counts_a.get(k, 0) - counts_b.get(k, 0)) for k in keys)
    return diff / (2.0 * shots)


def transpiled_counts_equivalent(
    original: QuantumCircuit,
    transpiled: QuantumCircuit,
    shots: int = 2048,
    seed: int = 1234,
    tie_tolerance: float = 0.1,
) -> bool:
    """Fixed-seed counts equality through the execution engine.

    Both circuits run noiselessly on an all-to-all target wide enough
    for the transpiled (physical) circuit.  Counts are keyed by
    classical bits, which routing preserves, so equivalent circuits
    with identical distributions produce identical dictionaries —
    with one caveat: the multinomial sampler draws each category as a
    binomial whose implementation switches branches at ``p = 0.5``, so
    a probability *exactly* tied at 0.5 (GHZ-type circuits) can land
    on either side of the branch after 1e-15 float reassociation and
    shuffle shots between the tied outcomes.  Byte equality is
    therefore checked first, and a tie-shuffle is forgiven when the
    total-variation distance between the two fixed-seed histograms
    stays within ``tie_tolerance``.  A shuffle across one 0.5 tie is a
    Binomial(shots, 1/2) fluctuation — TVD of a few times
    ``sqrt(1/4/shots)``, about 0.06 at 2048 shots — while a genuine
    distribution change moves mass structurally (dropping one gate
    from a GHZ ladder shifts TVD to ~0.5), so the default 0.1 cleanly
    separates the two.
    """
    from repro.backends.engine import execute_circuit
    from repro.backends.target import Target

    width = max(original.num_qubits, transpiled.num_qubits, 2)
    target = Target(width, CouplingMap.full(width))
    kwargs = dict(shots=shots, seed=seed, with_readout_error=False)
    counts_original = dict(execute_circuit(original, target, **kwargs).counts)
    counts_transpiled = dict(
        execute_circuit(transpiled, target, **kwargs).counts
    )
    if counts_original == counts_transpiled:
        return True
    tvd = _total_variation(counts_original, counts_transpiled, shots)
    return tvd <= tie_tolerance


def verify_transpiled(
    original: QuantumCircuit,
    transpiled: QuantumCircuit,
    max_unitary_qubits: int = MAX_UNITARY_QUBITS,
    shots: int = 2048,
    seed: int = 1234,
) -> dict:
    """Strongest affordable equivalence check, as a report dict.

    The counts check runs noiselessly on the engine's statevector, so
    past its 26-qubit budget no back-end runs it and the engine's
    budget error propagates.
    """
    if transpiled.num_qubits <= max_unitary_qubits:
        method = "unitary"
        equivalent = transpiled_unitary_equivalent(original, transpiled)
    elif transpiled.num_qubits <= MAX_DISTRIBUTION_QUBITS:
        method = "statevector_distribution"
        equivalent = transpiled_distribution_equivalent(original, transpiled)
    else:
        method = "fixed_seed_counts"
        equivalent = transpiled_counts_equivalent(
            original, transpiled, shots=shots, seed=seed
        )
    return {"method": method, "equivalent": bool(equivalent)}
