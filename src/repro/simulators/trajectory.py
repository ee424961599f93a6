"""Monte Carlo quantum-trajectory (stochastic wavefunction) simulation.

A *trajectory* evolves a statevector through a compiled step program:
unitaries apply directly, Kraus channels are sampled branch-by-branch
(branch ``k`` is selected with probability ``||K_k |psi>||^2`` and the
state renormalised), and pulse-jitter steps draw the same random kicks
the density-matrix engine would apply.  Averaged over trajectories this
reproduces the channel's density-matrix evolution exactly, at
``2**n`` memory per trajectory instead of ``4**n`` — the escape hatch
past the density-matrix qubit wall for stochastic noise.

The hot loop is **batched**: ``B`` trajectories are stacked into one
``(B, 2**n)`` complex matrix and every program step applies to the whole
stack with a single vectorised kernel call (:func:`apply_matrix_to_stack`)
— Kraus-branch selection is a per-row categorical draw from per-row
branch norms.  The kernel uses only fixed-order elementwise arithmetic
and per-row reductions, so a trajectory's result is bit-identical no
matter which batch it lands in: ``batch_size=1`` *is* the sequential
per-trajectory reference path, and any batch size or worker split
produces byte-identical counts.

Shots are divided into per-trajectory groups
(:func:`split_shots`); each trajectory owns an independent RNG derived
via ``derive_seed(seed, "traj", t)``, so a trajectory's draws do not
depend on which batch or round it runs in.

:func:`run_trajectories_adaptive` adds adaptive trajectory allocation:
trajectories run in rounds and stop once the estimated standard error
of the counts distribution drops below a target precision.  Because
per-trajectory RNG streams are position-derived, an adaptive run that
settles on ``T`` trajectories returns counts byte-identical to a fixed
``trajectories=T`` run at the same seed.

The circuit-to-program compilation (which channels fire where) lives in
:mod:`repro.backends.engine`; this module only knows how to run a
program.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.exceptions import SimulatorError
from repro.telemetry.spans import span as telemetry_span
from repro.utils.kernels import marginal_index_map, marginalize
from repro.utils.rng import as_generator, derive_seed

__all__ = [
    "TrajectoryProgram",
    "apply_matrix_to_stack",
    "default_batch_size",
    "run_trajectories",
    "run_trajectories_adaptive",
    "sample_jitter_kicks",
    "sample_kraus_branch",
    "split_shots",
]

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
#: entangling axis Z_c X_t with the control as the gate's first qubit
ZX_AXIS = np.kron(_PAULI_X, _PAULI_Z)

#: complex128 work-array element budget per batch (~64 MiB): batches are
#: sized so one stacked state never exceeds it
DEFAULT_BATCH_ELEMENTS = 1 << 22


def _diagonal_expansion(
    matrix: np.ndarray, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """Full-length diagonal of a diagonal k-qubit matrix on ``qubits``.

    ``out[c] = diag[j(c)]`` where ``j(c)`` reads the target-qubit bits of
    basis state ``c`` — applying the matrix becomes one broadcast
    multiply over the whole stack.  The O(2**n) gather rides on the
    cached :func:`~repro.utils.kernels.marginal_index_map` and costs a
    fraction of the multiply it enables, so the expansion itself is not
    cached (a cache would hold a 2**n array per distinct matrix).
    """
    return matrix.diagonal()[marginal_index_map(qubits, num_qubits)]


@lru_cache(maxsize=4096)
def _target_axes(
    num_qubits: int, qubits: tuple[int, ...]
) -> list[tuple]:
    """Index tuples addressing each basis state of the target qubits.

    Entry ``j`` indexes the ``(B, 2, ..., 2)`` stack tensor where the
    target qubits hold the bits of ``j`` (``qubits[0]`` = LSB); the
    non-target axes stay whole slices.  Depends only on
    ``(num_qubits, qubits)``, so it is compiled once per gate position.
    """
    full = slice(None)
    out = []
    for j in range(1 << len(qubits)):
        index: list = [full] * (1 + num_qubits)
        for pos, q in enumerate(qubits):
            # qubit q lives on tensor axis 1 + (num_qubits - 1 - q)
            index[1 + (num_qubits - 1 - q)] = (j >> pos) & 1
        out.append(tuple(index))
    return out


class TrajectoryProgram:
    """A compiled, trajectory-replayable instruction stream.

    Steps are plain tuples so one compilation is shared (read-only)
    across every trajectory:

    * ``("unitary", matrix, qubits)`` — deterministic evolution;
    * ``("channel", kraus_ops, qubits)`` — sample one Kraus branch;
    * ``("jitter", qubits, sigma_local, sigma_entangling)`` — random
      pulse-parameter-transfer kicks (see :func:`sample_jitter_kicks`).
    """

    __slots__ = ("num_qubits", "steps", "_stochastic")

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = int(num_qubits)
        self.steps: list[tuple] = []
        self._stochastic = False

    def unitary(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        self.steps.append(
            ("unitary", np.asarray(matrix, dtype=complex), tuple(qubits))
        )

    def channel(self, kraus_ops: Sequence[np.ndarray], qubits: Sequence[int]) -> None:
        ops = [np.asarray(op, dtype=complex) for op in kraus_ops]
        if len(ops) == 1:
            # completeness (checked at channel construction) makes a
            # single-operator channel unitary: no sampling needed
            self.steps.append(("unitary", ops[0], tuple(qubits)))
            return
        self.steps.append(("channel", ops, tuple(qubits)))
        self._stochastic = True

    def jitter(
        self,
        qubits: Sequence[int],
        sigma_local: float,
        sigma_entangling: float,
    ) -> None:
        if sigma_local <= 0 and sigma_entangling <= 0:
            return
        self.steps.append(
            ("jitter", tuple(qubits), float(sigma_local), float(sigma_entangling))
        )
        self._stochastic = True

    @property
    def is_stochastic(self) -> bool:
        """Whether replaying the program consumes randomness."""
        return self._stochastic

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        return (
            f"TrajectoryProgram({self.num_qubits} qubits, "
            f"{len(self.steps)} steps, "
            f"{'stochastic' if self._stochastic else 'deterministic'})"
        )


def split_shots(shots: int, trajectories: int) -> list[int]:
    """Deterministic shot allotment: trajectory ``t`` gets ``out[t]`` shots.

    The first ``shots % trajectories`` trajectories carry one extra
    shot.
    """
    if shots < 0 or trajectories < 1:
        raise SimulatorError(
            f"bad shot split: {shots} shots over {trajectories} trajectories"
        )
    base, extra = divmod(int(shots), int(trajectories))
    return [base + (1 if t < extra else 0) for t in range(trajectories)]


def default_batch_size(num_qubits: int, trajectories: int) -> int:
    """Largest batch whose stacked state fits the element budget."""
    return max(1, min(int(trajectories), DEFAULT_BATCH_ELEMENTS >> num_qubits))


# ---------------------------------------------------------------------------
# the batched kernel
# ---------------------------------------------------------------------------

def apply_matrix_to_stack(
    matrix: np.ndarray,
    stack: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply a k-qubit ``matrix`` to every row of a ``(B, 2**n)`` stack.

    Row ``b`` holds trajectory ``b``'s statevector; ``qubits[0]`` is the
    matrix's least-significant qubit.  The application is a fixed-order
    multiply-add over the ``2**k`` matrix columns — no cross-row
    reductions, no shape-dependent BLAS dispatch — so each row's result
    is bit-identical to applying the matrix to that trajectory alone.
    That invariance is what makes batched execution byte-identical to
    the sequential path at any batch size.  Returns a new array.
    """
    matrix = np.asarray(matrix, dtype=complex)
    k = len(qubits)
    dim = 1 << k
    if matrix.shape != (dim, dim):
        raise SimulatorError(
            f"matrix shape {matrix.shape} does not match {k} qubits"
        )
    if dim <= 16 and not np.any(matrix[~np.eye(dim, dtype=bool)]):
        # diagonal operators (rz/rzz layers, no-jump and dephasing
        # Kraus branches) collapse to one broadcast multiply
        full = _diagonal_expansion(matrix, tuple(qubits), num_qubits)
        return stack * full
    batch = stack.shape[0]
    shape = (batch,) + (2,) * num_qubits
    tensor = stack.reshape(shape)
    out_tensor = np.empty_like(tensor)
    # index tuple selecting the subspace where the k target qubits hold
    # the bits of basis index j (qubits[0] = the matrix's LSB qubit);
    # everything stays a strided view — no transpose copies
    axes = _target_axes(num_qubits, tuple(qubits))
    for i in range(dim):
        acc = None
        for j in range(dim):
            entry = matrix[i, j]
            if entry == 0.0:
                continue
            term = entry * tensor[axes[j]]
            if acc is None:
                acc = term
            else:
                acc += term
        if acc is None:
            out_tensor[axes[i]] = 0.0
        else:
            out_tensor[axes[i]] = acc
    return out_tensor.reshape(batch, 1 << num_qubits)


def _stack_norms(stack: np.ndarray) -> np.ndarray:
    """Per-row squared norms of a ``(B, 2**n)`` stack.

    Reduces each contiguous row independently, so row ``b``'s norm is
    bit-identical for any batch size.
    """
    mags = stack.real**2 + stack.imag**2
    return mags.sum(axis=1)


def sample_kraus_branches(
    stack: np.ndarray,
    kraus_ops: Sequence[np.ndarray],
    qubits: Sequence[int],
    num_qubits: int,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """One random Kraus branch per row of a normalised trajectory stack.

    Row ``b`` selects branch ``k`` with probability ``||K_k |psi_b>||^2``
    and is renormalised; exactly one uniform draw is consumed from
    ``rngs[b]`` regardless of which branch fires, so RNG consumption is
    independent of the outcome (and of the batch size).
    """
    batch = stack.shape[0]
    picks = np.empty(batch)
    for b, rng in enumerate(rngs):
        picks[b] = rng.random()
    # branches evaluate lazily on a shrinking working set: the no-jump
    # branch usually decides (almost) every row, so later operators
    # only ever touch the few still-undecided input rows — the same
    # early exit the per-trajectory loop enjoys, and only one candidate
    # stack is alive at a time.  Row compaction is safe because the
    # kernel's per-row results are independent of which rows share the
    # stack.  Each branch provisionally claims every remaining row (the
    # first branch by rebinding, no copy); the few rows that stay
    # undecided are overwritten by later branches — cheaper than
    # boolean-extracting the decided majority.
    out: np.ndarray | None = None
    selected_norms: np.ndarray | None = None
    remaining = np.arange(batch)
    acc = np.zeros(batch)
    sub = stack
    last = len(kraus_ops) - 1
    for pos, op in enumerate(kraus_ops):
        candidate = apply_matrix_to_stack(op, sub, qubits, num_qubits)
        norms = _stack_norms(candidate)
        if remaining.size == batch:
            acc = acc + norms
            acc_sub = acc
            out = candidate
            selected_norms = norms
        else:
            acc_sub = acc[remaining] + norms
            acc[remaining] = acc_sub
            out[remaining] = candidate
            selected_norms[remaining] = norms
        if pos < last:
            keep = ~(picks[remaining] < acc_sub)
        else:
            # fall through to the last branch on accumulated rounding
            keep = None
        if keep is None or not keep.any():
            break
        remaining = remaining[keep]
        sub = sub[keep]
    if np.any(selected_norms <= 0.0):
        raise SimulatorError(
            "Kraus sampling hit a zero-probability branch"
        )
    return out / np.sqrt(selected_norms)[:, None]


def sample_kraus_branch(
    state: np.ndarray,
    kraus_ops: Sequence[np.ndarray],
    qubits: Sequence[int],
    num_qubits: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Apply one randomly selected Kraus branch to a normalised state.

    Single-trajectory convenience wrapper over
    :func:`sample_kraus_branches` (batch of one), kept so callers and
    tests can exercise the branch-sampling rule directly.
    """
    stack = np.asarray(state, dtype=complex).reshape(1, -1)
    return sample_kraus_branches(
        stack, kraus_ops, qubits, num_qubits, [rng]
    )[0]


def sample_jitter_kicks(
    num_qubits: int,
    sigma_local: float,
    sigma_entangling: float,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Random pulse-jitter kicks for an uncalibrated pulse gate.

    Returns ``(kick_matrix, relative_positions)`` pairs, where positions
    index into the gate's qubit tuple.  The draw order (three normals
    per qubit for the local kick, then one for the entangling kick)
    matches the historical density-matrix engine bit-for-bit, so fixed
    seeds reproduce the seed path's results on every method.
    """
    kicks: list[tuple[np.ndarray, tuple[int, ...]]] = []
    if sigma_local > 0:
        for position in range(num_qubits):
            hx, hy, hz = rng.normal(0.0, sigma_local / 2, 3)
            norm = math.sqrt(hx * hx + hy * hy + hz * hz)
            if norm < 1e-15:
                continue
            kick = (
                math.cos(norm) * np.eye(2)
                - 1j
                * math.sin(norm)
                / norm
                * (hx * _PAULI_X + hy * _PAULI_Y + hz * _PAULI_Z)
            )
            kicks.append((kick, (position,)))
    if sigma_entangling > 0 and num_qubits == 2:
        angle = rng.normal(0.0, sigma_entangling)
        kick = (
            math.cos(angle / 2) * np.eye(4)
            - 1j * math.sin(angle / 2) * ZX_AXIS
        )
        kicks.append((kick, (0, 1)))
    return kicks


def _run_stack(
    program: TrajectoryProgram,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Replay the program once per row; returns the ``(B, 2**n)`` stack.

    Each row draws only from its own generator, in program-step order —
    exactly the stream the sequential per-trajectory replay consumes —
    so the rows are independent of how trajectories are batched.
    """
    n = program.num_qubits
    batch = len(rngs)
    stack = np.zeros((batch, 1 << n), dtype=complex)
    stack[:, 0] = 1.0
    for step in program.steps:
        kind = step[0]
        if kind == "unitary":
            _, matrix, qubits = step
            stack = apply_matrix_to_stack(matrix, stack, qubits, n)
        elif kind == "channel":
            _, kraus_ops, qubits = step
            stack = sample_kraus_branches(
                stack, kraus_ops, qubits, n, rngs
            )
        else:  # jitter: every row draws its own kicks
            _, qubits, sigma_local, sigma_ent = step
            for b, rng in enumerate(rngs):
                row = stack[b : b + 1]
                for kick, positions in sample_jitter_kicks(
                    len(qubits), sigma_local, sigma_ent, rng
                ):
                    row = apply_matrix_to_stack(
                        kick, row, [qubits[p] for p in positions], n
                    )
                stack[b] = row[0]
    return stack


def _final_marginal(
    state: np.ndarray,
    measured_positions: Sequence[int],
    num_qubits: int,
    readout,
) -> np.ndarray:
    """Normalised measured-qubit marginal of one final statevector."""
    probs = np.abs(state) ** 2
    marginal = marginalize(probs, measured_positions, num_qubits)
    if readout is not None:
        marginal = readout.apply_to_probabilities(marginal)
    return marginal / marginal.sum()


def _accumulate(
    outcome_counts: dict[int, int],
    outcomes: np.ndarray,
) -> None:
    for index in np.flatnonzero(outcomes):
        index = int(index)
        outcome_counts[index] = (
            outcome_counts.get(index, 0) + int(outcomes[index])
        )


def run_trajectories(
    program: TrajectoryProgram,
    shots: int,
    trajectories: int,
    seed: int | None | np.random.Generator,
    measured_positions: Sequence[int],
    readout=None,
    batch_size: int | None = None,
) -> dict[int, int]:
    """Accumulate measurement counts over ``trajectories`` trajectories.

    ``measured_positions`` are the (local) qubit positions marginalised
    into the outcome index (``positions[0]`` = output LSB); ``readout``
    is an optional :class:`~repro.noise.readout.ReadoutError` already
    restricted to the measured qubits.  Trajectory ``t``'s RNG is
    ``derive_seed(seed, "traj", t)``.

    ``batch_size`` bounds how many trajectories are stacked per kernel
    call (default: as many as fit :data:`DEFAULT_BATCH_ELEMENTS`);
    ``batch_size=1`` is the sequential per-trajectory reference path.
    Counts are byte-identical for every batch size.

    Returns sparse ``{outcome_index: count}`` over the measured qubits.
    """
    if not measured_positions:
        raise SimulatorError("run_trajectories needs measured positions")
    if batch_size is not None and batch_size < 1:
        raise SimulatorError("batch_size must be >= 1")
    shared_rng = seed if isinstance(seed, np.random.Generator) else None
    allotment = split_shots(shots, trajectories)
    live = [t for t in range(trajectories) if allotment[t] > 0]
    outcome_counts: dict[int, int] = {}
    if not live:
        return outcome_counts

    if shared_rng is not None:
        # a shared Generator is stateful: trajectories must consume it
        # strictly one after another, so the batch is forced to one
        frozen: np.ndarray | None = None
        for t in live:
            if frozen is None:
                state = _run_stack(program, [shared_rng])[0]
                marginal = _final_marginal(
                    state, measured_positions, program.num_qubits, readout
                )
                if not program.is_stochastic:
                    frozen = marginal
            else:
                marginal = frozen
            _accumulate(
                outcome_counts,
                shared_rng.multinomial(allotment[t], marginal),
            )
        return outcome_counts

    rngs = {
        t: as_generator(derive_seed(seed, "traj", t)) for t in live
    }
    if not program.is_stochastic:
        # deterministic program: every trajectory reaches the same state
        # — evolve once (consuming no randomness), sample per trajectory
        state = _run_stack(program, [rngs[live[0]]])[0]
        marginal = _final_marginal(
            state, measured_positions, program.num_qubits, readout
        )
        for t in live:
            _accumulate(
                outcome_counts,
                rngs[t].multinomial(allotment[t], marginal),
            )
        return outcome_counts

    batch = (
        default_batch_size(program.num_qubits, len(live))
        if batch_size is None
        else int(batch_size)
    )
    for pos in range(0, len(live), batch):
        chunk = live[pos : pos + batch]
        stack = _run_stack(program, [rngs[t] for t in chunk])
        for row, t in enumerate(chunk):
            marginal = _final_marginal(
                stack[row], measured_positions, program.num_qubits, readout
            )
            _accumulate(
                outcome_counts,
                rngs[t].multinomial(allotment[t], marginal),
            )
    return outcome_counts


# ---------------------------------------------------------------------------
# adaptive trajectory allocation
# ---------------------------------------------------------------------------

def run_trajectories_adaptive(
    program: TrajectoryProgram,
    shots: int,
    seed: int | None,
    measured_positions: Sequence[int],
    readout=None,
    target_error: float = 0.02,
    round_size: int = 32,
    max_trajectories: int = 1024,
    batch_size: int | None = None,
) -> tuple[dict[int, int], dict]:
    """Run trajectories in rounds until a target precision is met.

    After each round of ``round_size`` trajectories the counts
    distribution's standard error is estimated from the per-trajectory
    marginals seen so far (the max over outcomes of the sample standard
    deviation divided by ``sqrt(T)``); once it drops to ``target_error``
    — or ``max_trajectories``/``shots`` caps the budget — shot sampling
    proceeds with the allocation a fixed ``trajectories=T`` run would
    use.  Because trajectory ``t``'s RNG is position-derived, the
    returned counts are **byte-identical** to
    ``run_trajectories(program, shots, T, seed, ...)`` for the resolved
    ``T``.

    Returns ``(outcome_counts, info)`` where ``info`` reports the
    resolved trajectory count, rounds run, the achieved standard error
    and whether the target was met.
    """
    if not measured_positions:
        raise SimulatorError("run_trajectories needs measured positions")
    if isinstance(seed, np.random.Generator):
        raise SimulatorError(
            "adaptive trajectory allocation derives per-trajectory RNG "
            "streams from the seed; pass an integer seed, not a Generator"
        )
    if target_error <= 0:
        raise SimulatorError("target_error must be > 0")
    if round_size < 1 or max_trajectories < 1:
        raise SimulatorError(
            "round_size and max_trajectories must be >= 1"
        )
    if batch_size is not None and batch_size < 1:
        raise SimulatorError("batch_size must be >= 1")
    if shots < 1:
        raise SimulatorError("adaptive allocation needs shots >= 1")
    # more trajectories than shots would leave empty allotments: cap
    cap = max(1, min(int(max_trajectories), int(shots)))

    rngs: list[np.random.Generator] = []
    marginals: list[np.ndarray] = []
    rounds = 0
    achieved = math.inf

    if not program.is_stochastic:
        # zero variance by construction: one trajectory carries all shots
        rngs.append(as_generator(derive_seed(seed, "traj", 0)))
        state = _run_stack(program, [rngs[0]])[0]
        marginals.append(
            _final_marginal(
                state, measured_positions, program.num_qubits, readout
            )
        )
        total, rounds, achieved = 1, 1, 0.0
    else:
        total = 0
        while True:
            grow_to = min(cap, total + round_size)
            with telemetry_span(
                "trajectory.round", start=total, stop=grow_to
            ) as round_span:
                new = list(range(total, grow_to))
                for t in new:
                    rngs.append(as_generator(derive_seed(seed, "traj", t)))
                batch = (
                    default_batch_size(program.num_qubits, len(new))
                    if batch_size is None
                    else int(batch_size)
                )
                for pos in range(0, len(new), batch):
                    chunk = new[pos : pos + batch]
                    stack = _run_stack(program, [rngs[t] for t in chunk])
                    for row, t in enumerate(chunk):
                        marginals.append(
                            _final_marginal(
                                stack[row],
                                measured_positions,
                                program.num_qubits,
                                readout,
                            )
                        )
                total = grow_to
                rounds += 1
                if total >= 2:
                    sample = np.stack(marginals)
                    achieved = float(
                        (sample.std(axis=0, ddof=1) / math.sqrt(total)).max()
                    )
                if round_span:
                    round_span.annotate(
                        achieved_error=(
                            None if math.isinf(achieved) else achieved
                        )
                    )
            if achieved <= target_error or total >= cap:
                break

    allotment = split_shots(shots, total)
    outcome_counts: dict[int, int] = {}
    for t in range(total):
        if allotment[t] == 0:
            continue
        _accumulate(
            outcome_counts,
            rngs[t].multinomial(allotment[t], marginals[t]),
        )
    info = {
        "trajectories": total,
        "rounds": rounds,
        "target_error": float(target_error),
        # None (not inf) when the cap stopped the run before a variance
        # estimate existed — inf is not valid JSON
        "achieved_error": None if math.isinf(achieved) else achieved,
        "converged": achieved <= target_error,
    }
    return outcome_counts, info
