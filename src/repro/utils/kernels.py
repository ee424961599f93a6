"""Precomputed reshape/transpose kernels for the simulator hot loops.

Applying a k-qubit matrix to an n-qubit state tensor needs an axis
permutation that depends only on ``(n, qubits)`` — yet the seed
implementation rebuilt the axis lists and ran two ``moveaxis`` round
trips on every gate.  Here each distinct ``(n, qubits)`` pair compiles
once into an :class:`ApplyPlan` (forward permutation, inverse
permutation, reshape targets) cached process-wide, and application is a
single ``transpose → matmul → transpose`` pipeline with no per-call
Python list construction.  A plan can also start from a tensor stored
in another axis order and leave the result in the order the matmul
produces (:attr:`ApplyPlan.result_order`), so a walk that applies many
maps in a row pays one gather per map and no copy back.

The same module hosts the vectorized measurement kernels: marginal
distributions via index-map gather/scatter (bit-identical to the seed's
accumulation order, see :func:`marginalize`) and sparse
probability/count dictionaries that only touch nonzero outcomes.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.utils.bitstrings import index_to_bitstring

__all__ = [
    "ApplyPlan",
    "apply_plan",
    "apply_matrix_flat",
    "marginalize",
    "marginal_index_map",
    "nonzero_probability_dict",
    "nonzero_counts_dict",
]


class ApplyPlan:
    """Compiled axis bookkeeping for one ``(total_axes, front_axes,
    source_order)``.

    The conceptual tensor has ``total_axes`` axes, stored in
    ``source_order`` (memory axis ``i`` holds axis ``source_order[i]``;
    the natural order when omitted), and the plan moves ``front_axes``
    (in order) to the front, the other axes after them in their stored
    order.  ``result_order`` is the stored order of the moved tensor.
    Runs of axes that stay adjacent through the permutation are merged
    into single coarse dimensions, so the actual ``transpose`` calls
    involve a handful of large contiguous blocks instead of
    ``total_axes`` stride-2 axes — the difference between a fast blocked
    copy and a generic strided gather.
    """

    __slots__ = (
        "tensor_shape",
        "perm",
        "inv_perm",
        "mat_dim",
        "permuted_shape",
        "result_order",
    )

    def __init__(
        self,
        total_axes: int,
        front_axes: tuple[int, ...],
        source_order: tuple[int, ...] | None = None,
    ) -> None:
        if source_order is None:
            source_order = tuple(range(total_axes))
        position = {axis: i for i, axis in enumerate(source_order)}
        front = tuple(position[axis] for axis in front_axes)
        rest = tuple(p for p in range(total_axes) if p not in front)
        fine_perm = front + rest
        # merge runs of consecutive stored axes that the permutation
        # keeps adjacent
        runs: list[list[int]] = []
        for axis in fine_perm:
            if runs and axis == runs[-1][0] + runs[-1][1]:
                runs[-1][1] += 1
            else:
                runs.append([axis, 1])
        by_origin = sorted(range(len(runs)), key=lambda i: runs[i][0])
        rank = {run_index: pos for pos, run_index in enumerate(by_origin)}
        self.tensor_shape = tuple(
            1 << runs[i][1] for i in by_origin
        )
        self.perm = tuple(rank[i] for i in range(len(runs)))
        inv = [0] * len(runs)
        for position, axis in enumerate(self.perm):
            inv[axis] = position
        self.inv_perm = tuple(inv)
        self.mat_dim = 1 << len(front_axes)
        self.permuted_shape = tuple(1 << run[1] for run in runs)
        self.result_order = tuple(source_order[p] for p in fine_perm)

    def gather(self, flat: np.ndarray) -> np.ndarray:
        """The planned axes of a flat tensor moved to the front, as a
        ``(mat_dim, -1)`` matrix (a copy unless they already lead)."""
        return (
            flat.reshape(self.tensor_shape)
            .transpose(self.perm)
            .reshape(self.mat_dim, -1)
        )


@lru_cache(maxsize=4096)
def apply_plan(
    total_axes: int,
    front_axes: tuple[int, ...],
    source_order: tuple[int, ...] | None = None,
) -> ApplyPlan:
    """Cached :class:`ApplyPlan` for moving ``front_axes`` to the front."""
    return ApplyPlan(total_axes, front_axes, source_order)


def statevector_axes(qubits: tuple[int, ...], num_qubits: int) -> tuple[int, ...]:
    """Leading tensor axes for a little-endian gate on a statevector.

    Axis 0 of the reshaped tensor is qubit ``n-1``; the matrix's LSB
    qubit (``qubits[0]``) must land on the *last* of the moved axes.
    """
    return tuple(num_qubits - 1 - q for q in reversed(qubits))


def apply_matrix_flat(
    matrix: np.ndarray, flat: np.ndarray, plan: ApplyPlan
) -> np.ndarray:
    """``matrix`` applied to the planned axes of a flat tensor.

    Returns a new flat array; ``flat`` is unmodified.
    """
    out = matrix @ plan.gather(flat)
    return out.reshape(plan.permuted_shape).transpose(plan.inv_perm).reshape(-1)


# ---------------------------------------------------------------------------
# measurement kernels
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def marginal_index_map(
    positions: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """For every basis index, the marginal key over ``positions``.

    ``positions[0]`` becomes the least-significant bit of the key.  The
    map depends only on ``(positions, num_qubits)`` and is cached.
    """
    indices = np.arange(1 << num_qubits, dtype=np.intp)
    keys = np.zeros_like(indices)
    for pos, qubit in enumerate(positions):
        keys |= ((indices >> qubit) & 1) << pos
    keys.setflags(write=False)
    return keys


def marginalize(
    probs: np.ndarray, positions: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Marginal distribution over ``positions`` (positions[0] = LSB out).

    Uses an index-map scatter-add, which accumulates in ascending basis
    order — the same order as a Python loop over ``enumerate(probs)`` —
    so results are bit-identical to the seed implementation.
    """
    keys = marginal_index_map(tuple(positions), num_qubits)
    out = np.zeros(1 << len(positions))
    np.add.at(out, keys, probs)
    return out


def nonzero_probability_dict(
    probs: np.ndarray, num_bits: int, atol: float = 1e-12
) -> dict[str, float]:
    """Probability dict touching only entries above ``atol``."""
    live = np.flatnonzero(probs > atol)
    values = probs[live]
    return {
        index_to_bitstring(int(i), num_bits): float(p)
        for i, p in zip(live, values)
    }


def nonzero_counts_dict(
    outcomes: np.ndarray, num_bits: int
) -> dict[str, int]:
    """Counts dict touching only nonzero multinomial outcomes."""
    live = np.flatnonzero(outcomes)
    values = outcomes[live]
    return {
        index_to_bitstring(int(i), num_bits): int(c)
        for i, c in zip(live, values)
    }
