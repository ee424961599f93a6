"""Matrix-free measurement mitigation (M3), Nation et al., PRX Quantum 2021.

Instead of building the full ``2^n x 2^n`` assignment matrix ``A`` (or its
inverse), M3 works in the subspace spanned by the **observed** bitstrings:
the reduced matrix ``Ã`` has one row/column per distinct observed string,
with elements from products of per-qubit confusion factors, columns
renormalised over the subspace.  ``Ã x = p_noisy`` is then solved either
directly (LU) or iteratively (preconditioned GMRES), optionally
restricting matrix elements to Hamming distance <= D.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from repro.exceptions import MitigationError
from repro.noise.readout import ReadoutError
from repro.utils.bitstrings import bitstring_to_index


class QuasiDistribution(dict):
    """A quasi-probability dictionary (values may be slightly negative)."""

    def nearest_probability_distribution(self) -> dict[str, float]:
        """Project onto the probability simplex (Smolin et al. 2012).

        Walk the entries smallest-first; any entry that cannot be made
        non-negative by the accumulated correction is dropped and its
        mass spread uniformly over the survivors.

        A quasi-distribution whose values sum to zero or less cannot be
        renormalised for that walk (M3 outputs sum to ~1, but heavily
        negative inputs are representable); those fall back to the
        exact Euclidean simplex projection, which is defined for any
        real vector.
        """
        items = sorted(self.items(), key=lambda kv: kv[1])
        total = sum(value for _, value in items)
        if total <= 0:
            if not items:
                raise MitigationError("empty quasi-distribution")
            return self._euclidean_simplex_projection(items)
        # renormalise so the simplex target sums to one
        items = [(key, value / total) for key, value in items]
        negative_mass = 0.0
        start = 0
        remaining = len(items)
        for idx, (_, value) in enumerate(items):
            if value + negative_mass / remaining < 0:
                negative_mass += value
                remaining -= 1
                start = idx + 1
            else:
                break
        if remaining == 0:
            raise MitigationError("all quasi-probability mass was negative")
        correction = negative_mass / remaining
        return {
            key: float(value + correction)
            for key, value in items[start:]
        }

    @staticmethod
    def _euclidean_simplex_projection(
        items: list[tuple[str, float]],
    ) -> dict[str, float]:
        """argmin ||p - q||_2 over the probability simplex.

        Standard threshold construction (Held et al. 1974): keep the
        largest entries whose common shift stays non-negative, zero the
        rest.  Only used when the quasi-distribution's total mass is
        non-positive — the renormalised smallest-first walk above
        handles the common case and keeps its historical outputs.
        """
        values = np.array([value for _, value in items])
        descending = np.sort(values)[::-1]
        cumulative = np.cumsum(descending)
        ranks = np.arange(1, values.size + 1)
        support = descending + (1.0 - cumulative) / ranks > 0
        rho = int(np.nonzero(support)[0].max()) + 1
        shift = (1.0 - cumulative[rho - 1]) / rho
        # zeroed entries are dropped, matching the renormalised walk's
        # output shape (callers test outcome membership)
        return {
            key: float(value + shift)
            for key, value in items
            if value + shift > 0.0
        }

    def expectation(self, diagonal_fn) -> float:
        """Expectation of a bitstring-valued function."""
        total = sum(self.values())
        return float(
            sum(diagonal_fn(key) * value for key, value in self.items())
            / total
        )


class M3Mitigator:
    """Subspace readout-error mitigation for a set of measured qubits."""

    def __init__(self, readout: ReadoutError) -> None:
        self.readout = readout

    @classmethod
    def from_backend(
        cls, backend, qubits: Sequence[int]
    ) -> "M3Mitigator":
        """Calibration step: extract the backend's per-qubit confusion
        restricted to ``qubits`` (the paper's "initial calibration
        program")."""
        noise_model = backend.noise_model
        if noise_model is None or noise_model.readout_error is None:
            raise MitigationError(
                f"backend {backend.name!r} has no readout-error model"
            )
        return cls(noise_model.readout_error.subset(qubits))

    # ------------------------------------------------------------------
    def apply(
        self,
        counts: Mapping[str, int],
        distance: int | None = None,
        method: str = "iterative",
        tol: float = 1e-8,
    ) -> QuasiDistribution:
        """Mitigate ``counts``; returns a quasi-probability distribution.

        ``distance`` truncates matrix elements beyond that Hamming
        distance (None = full subspace coupling).  ``method`` is
        ``"iterative"`` (preconditioned GMRES) or ``"direct"`` (dense
        LU, for testing/small subspaces).
        """
        if method not in ("direct", "iterative"):
            raise MitigationError(f"unknown method {method!r}")
        if distance is not None and distance < 0:
            raise MitigationError(f"distance must be >= 0, got {distance}")
        if not counts:
            raise MitigationError("empty counts")
        keys = sorted(counts)
        num_bits = len(keys[0])
        if any(len(k) != num_bits for k in keys):
            raise MitigationError("inconsistent bitstring lengths")
        if num_bits != self.readout.num_qubits:
            raise MitigationError(
                f"counts have {num_bits} bits, mitigator calibrated for "
                f"{self.readout.num_qubits}"
            )
        if num_bits > 63:
            raise MitigationError(
                f"M3 takes at most 63 bits (int64 indices), got {num_bits}"
            )
        shots = float(sum(counts.values()))
        p_noisy = np.array([counts[k] for k in keys], dtype=float) / shots
        indices = np.array([bitstring_to_index(k) for k in keys])

        # matrix[i, j] = P(keys[i] | keys[j]), built once.  Every sum
        # below is an axis-0 reduce of a C-contiguous array, which adds
        # whole rows in order from +0.0: the order of the scalar
        # per-element loop, so results match it to the last bit.  A BLAS
        # matvec or an axis-1 (pairwise) sum would reorder the additions.
        matrix = self.readout.assignment_matrix(indices, indices)
        if distance is not None:
            hamming = np.bitwise_count(indices[:, None] ^ indices[None, :])
            matrix[hamming > distance] = 0.0
        norms = np.add.reduce(matrix, axis=0, initial=0.0)
        if np.any(norms <= 0):
            raise MitigationError("zero column norm in M3 subspace")
        if method == "direct":
            solution = np.linalg.solve(matrix / norms, p_noisy)
        else:
            # row j holds column j, so the matvec sums over columns in order
            by_column = np.ascontiguousarray(matrix.T)
            operator = LinearOperator(
                matrix.shape,
                matvec=lambda v: np.add.reduce(
                    by_column * (v / norms)[:, None], axis=0, initial=0.0
                ),
            )
            diagonal = np.diagonal(matrix) / norms
            preconditioner = LinearOperator(
                matrix.shape, matvec=lambda v: v / diagonal
            )
            solution, info = gmres(
                operator, p_noisy, M=preconditioner, rtol=tol, atol=0.0
            )
            if info != 0:
                raise MitigationError(f"GMRES failed to converge ({info})")
        return QuasiDistribution(
            {key: float(x) for key, x in zip(keys, solution)}
        )
