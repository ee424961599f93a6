"""Pure-state simulation.

:class:`Statevector` is a thin wrapper over a complex numpy array with
little-endian qubit indexing, supporting in-place gate application, basis
measurement statistics and expectation values.  The module-level
:func:`simulate_statevector` runs a (noise-free) circuit.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Barrier, Delay, Instruction, Measure
from repro.exceptions import SimulatorError
from repro.utils.kernels import (
    nonzero_counts_dict,
    nonzero_probability_dict,
)
from repro.utils.linalg import apply_matrix_to_qubits
from repro.utils.rng import as_generator


class Statevector:
    """A pure quantum state on ``num_qubits`` qubits."""

    def __init__(self, data: np.ndarray | int) -> None:
        if isinstance(data, (int, np.integer)):
            num_qubits = int(data)
            vec = np.zeros(1 << num_qubits, dtype=complex)
            vec[0] = 1.0
            self.data = vec
        else:
            vec = np.asarray(data, dtype=complex).reshape(-1)
            size = vec.size
            if size & (size - 1):
                raise SimulatorError(f"state length {size} is not 2**n")
            self.data = vec.copy()
        self.num_qubits = self.data.size.bit_length() - 1

    @classmethod
    def from_label(cls, label: str) -> "Statevector":
        """Build a computational-basis or product state from a label.

        Accepted characters: ``0 1 + -`` (qubit 0 is the rightmost char).
        """
        single = {
            "0": np.array([1, 0], dtype=complex),
            "1": np.array([0, 1], dtype=complex),
            "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
            "-": np.array([1, -1], dtype=complex) / math.sqrt(2),
        }
        vec = np.array([1.0], dtype=complex)
        for char in label:  # leftmost char = most significant qubit
            if char not in single:
                raise SimulatorError(f"bad state label char {char!r}")
            vec = np.kron(vec, single[char])
        return cls(vec)

    def copy(self) -> "Statevector":
        return Statevector(self.data)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def normalize(self) -> "Statevector":
        self.data /= self.norm
        return self

    # ------------------------------------------------------------------
    def evolve(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "Statevector":
        """Apply ``matrix`` to ``qubits`` (in place); returns self."""
        self.data = apply_matrix_to_qubits(
            matrix, self.data, qubits, self.num_qubits
        )
        return self

    def apply_unitary(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "Statevector":
        """Alias of :meth:`evolve`, named like
        :meth:`DensityMatrix.apply_unitary`."""
        return self.evolve(matrix, qubits)

    def probabilities(self) -> np.ndarray:
        """Probability of each basis state."""
        return np.abs(self.data) ** 2

    def probability_dict(self, atol: float = 1e-12) -> dict[str, float]:
        """Probabilities as bitstring dict, zero entries omitted.

        Only the nonzero outcomes are converted to bitstrings, so the
        cost scales with the support of the state, not 2**n.
        """
        return nonzero_probability_dict(
            self.probabilities(), self.num_qubits, atol
        )

    def expectation_value(
        self, operator: np.ndarray, qubits: Sequence[int] | None = None
    ) -> complex:
        """Expectation ``<psi|O|psi>`` of an operator on ``qubits``."""
        if qubits is None:
            qubits = list(range(self.num_qubits))
        evolved = apply_matrix_to_qubits(
            np.asarray(operator, dtype=complex),
            self.data,
            qubits,
            self.num_qubits,
        )
        return complex(np.vdot(self.data, evolved))

    def expectation_diagonal(self, diagonal: np.ndarray) -> float:
        """Expectation of a diagonal observable given its diagonal."""
        diagonal = np.asarray(diagonal, dtype=float)
        if diagonal.size != self.data.size:
            raise SimulatorError("diagonal length mismatch")
        return float(np.real(self.probabilities() @ diagonal))

    def sample_counts(
        self,
        shots: int,
        seed: int | None | np.random.Generator = None,
    ) -> dict[str, int]:
        """Sample measurement outcomes in the computational basis."""
        rng = as_generator(seed)
        probs = self.probabilities()
        probs = probs / probs.sum()
        outcomes = rng.multinomial(shots, probs)
        return nonzero_counts_dict(outcomes, self.num_qubits)

    def __repr__(self) -> str:
        return f"Statevector({self.num_qubits} qubits, norm={self.norm:.6f})"


def simulate_statevector(
    circuit: QuantumCircuit,
    initial_state: Statevector | None = None,
    unitary_provider: Callable[[Instruction], np.ndarray] | None = None,
) -> Statevector:
    """Run a noise-free circuit and return the final statevector.

    Measurements are ignored (the full distribution is available from the
    returned state); barriers and delays are no-ops.  ``unitary_provider``
    resolves operations without a static matrix (e.g. pulse gates).
    """
    if initial_state is None:
        state = Statevector(circuit.num_qubits)
    else:
        state = initial_state.copy()
        if state.num_qubits != circuit.num_qubits:
            raise SimulatorError("initial state size mismatch")
    for inst in circuit.instructions:
        op = inst.operation
        if isinstance(op, (Barrier, Measure, Delay)):
            continue
        try:
            matrix = op.matrix()
        except Exception:
            if unitary_provider is None:
                raise SimulatorError(
                    f"no unitary available for {op!r}; pass unitary_provider"
                ) from None
            matrix = unitary_provider(op)
        state.evolve(matrix, inst.qubits)
    if circuit.global_phase:
        state.data *= np.exp(1j * circuit.global_phase)
    return state
