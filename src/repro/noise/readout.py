"""Per-qubit readout (measurement assignment) error model."""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.exceptions import NoiseError
from repro.utils.bitstrings import bitstring_to_index, index_to_bitstring
from repro.utils.rng import as_generator


class ReadoutError:
    """Independent per-qubit measurement confusion.

    Each qubit q has a 2x2 column-stochastic assignment matrix ``A_q`` with
    ``A_q[i, j] = P(measure i | prepared j)``.  The full assignment matrix
    is the tensor product, which this class never materialises: sampling and
    probability transforms work qubit-by-qubit.
    """

    def __init__(self, assignment_matrices: Sequence[np.ndarray]) -> None:
        mats = []
        for q, mat in enumerate(assignment_matrices):
            mat = np.asarray(mat, dtype=float)
            if mat.shape != (2, 2):
                raise NoiseError(f"qubit {q}: assignment matrix must be 2x2")
            if np.any(mat < -1e-12):
                raise NoiseError(f"qubit {q}: negative probabilities")
            if not np.allclose(mat.sum(axis=0), 1.0, atol=1e-9):
                raise NoiseError(
                    f"qubit {q}: columns must sum to 1, got {mat.sum(axis=0)}"
                )
            mats.append(np.clip(mat, 0.0, 1.0))
        self.assignment_matrices = mats
        self.num_qubits = len(mats)

    @classmethod
    def uniform(cls, num_qubits: int, error_rate: float) -> "ReadoutError":
        """Symmetric confusion: P(flip) = error_rate on every qubit."""
        if not 0 <= error_rate <= 0.5:
            raise NoiseError(f"readout error rate {error_rate} out of [0,0.5]")
        mat = np.array(
            [
                [1 - error_rate, error_rate],
                [error_rate, 1 - error_rate],
            ]
        )
        return cls([mat.copy() for _ in range(num_qubits)])

    @classmethod
    def asymmetric(
        cls,
        num_qubits: int,
        p01: float,
        p10: float,
    ) -> "ReadoutError":
        """Asymmetric confusion: p01 = P(read 0 | prepared 1) and
        p10 = P(read 1 | prepared 0), identical on every qubit."""
        mat = np.array([[1 - p10, p01], [p10, 1 - p01]])
        return cls([mat.copy() for _ in range(num_qubits)])

    # ------------------------------------------------------------------
    def flip_probabilities(self, qubit: int) -> tuple[float, float]:
        """(P(1|0), P(0|1)) for ``qubit``."""
        mat = self.assignment_matrices[qubit]
        return float(mat[1, 0]), float(mat[0, 1])

    def apply_to_probabilities(self, probs: np.ndarray) -> np.ndarray:
        """Transform ideal basis-state probabilities into noisy ones.

        Cost O(n * 2**n) using per-qubit tensor contractions.
        """
        probs = np.asarray(probs, dtype=float)
        size = probs.size
        n = size.bit_length() - 1
        if n != self.num_qubits:
            raise NoiseError(
                f"probability vector is {n} qubits, model has {self.num_qubits}"
            )
        tensor = probs.reshape([2] * n)
        for q in range(n):
            axis = n - 1 - q
            tensor = np.moveaxis(tensor, axis, 0)
            shape = tensor.shape
            tensor = self.assignment_matrices[q] @ tensor.reshape(2, -1)
            tensor = np.moveaxis(tensor.reshape(shape), 0, axis)
        return tensor.reshape(-1)

    def sample_counts(
        self,
        counts: Mapping[str, int],
        seed: int | None | np.random.Generator = None,
    ) -> dict[str, int]:
        """Stochastically corrupt ideal counts shot by shot."""
        rng = as_generator(seed)
        out: dict[str, int] = {}
        for bitstring, count in counts.items():
            index = bitstring_to_index(bitstring)
            for _ in range(int(count)):
                noisy = self.sample_index(index, rng)
                key = index_to_bitstring(noisy, self.num_qubits)
                out[key] = out.get(key, 0) + 1
        return out

    def sample_index(
        self, index: int, rng: np.random.Generator
    ) -> int:
        """One stochastic assignment of a prepared outcome index.

        Draws exactly one uniform per qubit, in qubit order.
        """
        noisy = 0
        for q in range(self.num_qubits):
            prepared = (index >> q) & 1
            mat = self.assignment_matrices[q]
            read = int(rng.random() < mat[1, prepared])
            noisy |= read << q
        return noisy

    def assignment_matrix(
        self, measured: Sequence[int], prepared: Sequence[int]
    ) -> np.ndarray:
        """``P(measured[i] | prepared[j])`` over all qubits (product form).

        Bit q of an index selects ``assignment_matrices[q]``; the factors
        are multiplied in qubit order, so every element rounds as the
        scalar product ``A_0[...] * A_1[...] * ...`` does.
        """
        measured = np.asarray(measured)[:, None]
        prepared = np.asarray(prepared)[None, :]
        matrix = np.ones((measured.size, prepared.size))
        for q, mat in enumerate(self.assignment_matrices):
            matrix *= mat[(measured >> q) & 1, (prepared >> q) & 1]
        return matrix

    def subset(self, qubits: Sequence[int]) -> "ReadoutError":
        """Readout model restricted to ``qubits`` (new qubit order)."""
        return ReadoutError(
            [self.assignment_matrices[q] for q in qubits]
        )

    def __repr__(self) -> str:
        avg = np.mean(
            [
                (m[1, 0] + m[0, 1]) / 2
                for m in self.assignment_matrices
            ]
        )
        return (
            f"ReadoutError({self.num_qubits} qubits, "
            f"avg flip={avg:.4f})"
        )
