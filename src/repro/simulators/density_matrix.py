"""Mixed-state simulation.

:class:`DensityMatrix` supports unitary evolution, Kraus-channel
application on subsets of qubits, measurement statistics, purity and
fidelity queries.  It is the workhorse of the noisy backend: at the paper's
problem sizes (6-8 qubits) exact density-matrix evolution is fast and free
of sampling noise in the *state* (shot noise is added at measurement time).

Every map is one pass of a row-major superoperator
(:meth:`DensityMatrix.apply_superop`).  The module-level helpers build
superoperators of unitaries, channels and tensor products of maps, so a
caller can compose several maps on the same qubits first, or tensor two
maps on disjoint qubits (:func:`expand_superop`), and pay one pass for
all of them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.exceptions import SimulatorError
from repro.simulators.statevector import Statevector
from repro.utils.kernels import (
    ApplyPlan,
    apply_matrix_flat,
    apply_plan,
    nonzero_counts_dict,
    nonzero_probability_dict,
)
from repro.utils.linalg import kron_all, partial_trace
from repro.utils.rng import as_generator


def unitary_superop(matrix: np.ndarray) -> np.ndarray:
    """``U ⊗ U*`` — the row-major superoperator of ``rho -> U rho U†``.

    With the combined index ordered (row bits major, column bits minor)
    this contracts against the density tensor's joint row/column target
    axes in one matmul (:meth:`DensityMatrix.apply_superop`).
    """
    matrix = np.asarray(matrix, dtype=complex)
    return kron_all([matrix, matrix.conj()])


def kraus_superop(kraus_ops: Sequence[np.ndarray]) -> np.ndarray:
    """``sum_k K_k ⊗ K_k*`` — the row-major superoperator of a channel."""
    return sum(unitary_superop(op) for op in kraus_ops)


def channel_superop(channel) -> np.ndarray:
    """The superoperator of a :class:`~repro.noise.channels.KrausChannel`,
    built on first use and memoized on the channel."""
    superop = getattr(channel, "_superop", None)
    if superop is None:
        superop = kraus_superop(channel.kraus_ops)
        channel._superop = superop
    return superop


def expand_superop(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Superoperator of ``low`` on the lower-significance qubits and
    ``high`` on the qubits above them.

    The superoperator of ``KrausChannel.expand`` built from the two
    factors' superoperators: a product of their entries, reordered so
    the row bits of both factors precede their column bits.
    """
    dl = math.isqrt(low.shape[0])
    dh = math.isqrt(high.shape[0])
    low = low.reshape(dl, dl, dl, dl)
    high = high.reshape(dh, dh, dh, dh)
    out = (
        high[:, None, :, None, :, None, :, None]
        * low[None, :, None, :, None, :, None, :]
    )
    size = (dh * dl) ** 2
    return out.reshape(size, size)


@lru_cache(maxsize=4096)
def superop_plan(
    num_qubits: int,
    qubits: tuple[int, ...],
    order: tuple[int, ...] | None = None,
) -> ApplyPlan:
    """Kernel plan for a superoperator on ``qubits`` of an
    ``num_qubits``-qubit density tensor: the row axes, then the column
    axes.  ``order`` is the axis order the tensor is stored in (row axes
    ``0..n-1`` then column axes, most significant qubit first; that
    canonical order when omitted).  The qubits are checked once per
    distinct ``(n, qubits, order)``."""
    if len(set(qubits)) != len(qubits) or not all(
        0 <= q < num_qubits for q in qubits
    ):
        raise SimulatorError(
            f"qubits {qubits} must be distinct and in range({num_qubits})"
        )
    rows = tuple(num_qubits - 1 - q for q in reversed(qubits))
    return apply_plan(
        2 * num_qubits,
        rows + tuple(num_qubits + axis for axis in rows),
        order,
    )


class DensityMatrix:
    """A density operator on ``num_qubits`` qubits (little-endian)."""

    def __init__(self, data: np.ndarray | int | Statevector) -> None:
        if isinstance(data, Statevector):
            vec = data.data
            self.data = np.outer(vec, vec.conj())
        elif isinstance(data, (int, np.integer)):
            dim = 1 << int(data)
            self.data = np.zeros((dim, dim), dtype=complex)
            self.data[0, 0] = 1.0
        else:
            mat = np.asarray(data, dtype=complex)
            dim = mat.shape[0]
            if mat.shape != (dim, dim) or dim & (dim - 1):
                raise SimulatorError(f"bad density matrix shape {mat.shape}")
            self.data = mat.copy()
        self.num_qubits = self.data.shape[0].bit_length() - 1

    @classmethod
    def from_label(cls, label: str) -> "DensityMatrix":
        return cls(Statevector.from_label(label))

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.data)

    # ------------------------------------------------------------------
    def apply_superop(
        self, superop: np.ndarray, qubits: Sequence[int]
    ) -> "DensityMatrix":
        """rho -> S(rho) for a row-major superoperator ``S`` on ``qubits``
        (in place); returns self.

        One transpose/matmul pass over the density tensor, whatever the
        map: a unitary (:func:`unitary_superop`), a channel
        (:func:`channel_superop`) or a product of them.  Axis
        permutations are compiled once per ``(n, qubits)`` and cached
        (see :mod:`repro.utils.kernels`).
        """
        plan = superop_plan(self.num_qubits, tuple(qubits))
        if np.shape(superop) != (plan.mat_dim, plan.mat_dim):
            raise SimulatorError(
                f"superoperator of shape {np.shape(superop)} does not act "
                f"on {len(qubits)} qubit(s)"
            )
        self.data = apply_matrix_flat(
            superop, self.data.reshape(-1), plan
        ).reshape(self.data.shape)
        return self

    def apply_diagonal_unitary(self, diagonal: np.ndarray) -> "DensityMatrix":
        """rho -> D rho D† for ``D = diag(diagonal)`` on the whole register
        (in place); returns self.

        One elementwise product, ``rho ∘ outer(d, d*)``, instead of a
        transpose/matmul pass.
        """
        diagonal = np.asarray(diagonal)
        if diagonal.shape != (self.data.shape[0],):
            raise SimulatorError(
                f"diagonal of shape {diagonal.shape} does not act on "
                f"{self.num_qubits} qubit(s)"
            )
        self.data = self.data * np.outer(diagonal, diagonal.conj())
        return self

    def apply_unitary(
        self, matrix: np.ndarray, qubits: Sequence[int]
    ) -> "DensityMatrix":
        """rho -> U rho U† on ``qubits`` (in place); returns self."""
        return self.apply_superop(unitary_superop(matrix), qubits)

    def apply_kraus(
        self, kraus_ops: Sequence[np.ndarray], qubits: Sequence[int]
    ) -> "DensityMatrix":
        """rho -> sum_k K_k rho K_k† on ``qubits`` (in place).

        The channel is applied as a single superoperator contraction
        ``S = sum_k K_k ⊗ K_k*`` over the joint (row, column) axes of
        the target qubits: one transpose/matmul pass per channel instead
        of two per Kraus operator.
        """
        return self.apply_superop(kraus_superop(kraus_ops), qubits)

    def apply_channel(
        self, channel, qubits: Sequence[int]
    ) -> "DensityMatrix":
        """Apply a :class:`~repro.noise.channels.KrausChannel` (in place).

        Prefer this over :meth:`apply_kraus` for channel objects: the
        superoperator is built once per channel and memoized on it.
        """
        return self.apply_superop(channel_superop(channel), qubits)

    # ------------------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        """Diagonal of rho, clipped to remove numerical negatives."""
        probs = np.real(np.diag(self.data)).copy()
        probs[probs < 0] = 0.0
        total = probs.sum()
        if total <= 0:
            raise SimulatorError("density matrix has zero trace")
        return probs / total

    def probability_dict(self, atol: float = 1e-12) -> dict[str, float]:
        return nonzero_probability_dict(
            self.probabilities(), self.num_qubits, atol
        )

    def expectation_diagonal(self, diagonal: np.ndarray) -> float:
        """Expectation of a diagonal observable given its diagonal."""
        diagonal = np.asarray(diagonal, dtype=float)
        if diagonal.size != self.data.shape[0]:
            raise SimulatorError("diagonal length mismatch")
        return float(np.real(np.diag(self.data)) @ diagonal)

    def expectation_value(self, operator: np.ndarray) -> complex:
        """Tr(rho O) for a full-system operator."""
        operator = np.asarray(operator, dtype=complex)
        return complex(np.trace(self.data @ operator))

    def purity(self) -> float:
        """Tr(rho²)."""
        return float(np.real(np.trace(self.data @ self.data)))

    def trace(self) -> float:
        return float(np.real(np.trace(self.data)))

    def fidelity_with_state(self, state: Statevector) -> float:
        """<psi|rho|psi> against a pure reference state."""
        vec = state.data
        return float(np.real(np.vdot(vec, self.data @ vec)))

    def reduce(self, keep: Sequence[int]) -> "DensityMatrix":
        """Partial trace keeping ``keep`` qubits."""
        return DensityMatrix(
            partial_trace(self.data, keep, self.num_qubits)
        )

    def sample_counts(
        self,
        shots: int,
        seed: int | None | np.random.Generator = None,
    ) -> dict[str, int]:
        """Sample ``shots`` computational-basis outcomes."""
        rng = as_generator(seed)
        probs = self.probabilities()
        outcomes = rng.multinomial(shots, probs)
        return nonzero_counts_dict(outcomes, self.num_qubits)

    def __repr__(self) -> str:
        return (
            f"DensityMatrix({self.num_qubits} qubits, "
            f"purity={self.purity():.6f})"
        )
