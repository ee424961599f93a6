"""CHP-style stabilizer (Clifford tableau) simulation with Pauli noise.

The tableau tracks ``n`` stabilizer and ``n`` destabilizer generators of
an ``n``-qubit stabilizer state (Aaronson–Gottesman).  Rows are stored
as the canonical form ``i^phase * X^x * Z^z`` (all X factors before all
Z factors; qubit 0 is the least-significant bit everywhere, matching the
statevector conventions of this package), so every update is bit/phase
arithmetic — memory and time are polynomial in ``n`` instead of the
``2**n`` / ``4**n`` of the amplitude simulators.

The x/z blocks are **bit-packed**: row ``r``'s x (z) bits live in
``x_words[r]`` (``z_words[r]``), a ``ceil(n/64)``-word ``uint64`` vector
with qubit ``q`` at bit ``q % 64`` of word ``q // 64``.  Row products
reduce to word-wise XOR plus a popcount parity (``np.bitwise_count``),
so a 2n-row update touches ``2n * ceil(n/64)`` machine words instead of
``2n * n`` bytes.  Phases are 2-bit values (``i^phase``) kept as a
``uint8`` vector.

Clifford gates arrive as plain unitary matrices: the compilation step
conjugates every ``X^a Z^b`` pattern on the gate's qubits through the
matrix once (:func:`clifford_conjugation_table`) and caches the
resulting lookup table, so tableau updates are vectorized table lookups
over all ``2n`` rows.  A matrix that fails to conjugate Paulis to
Paulis is simply *not Clifford* and the table builder returns ``None``
— that is also the capability test ``auto`` dispatch uses.

Noise enters as **Pauli channels** (:func:`pauli_channel_terms`):
mixtures ``{(p_k, P_k)}`` applied by sampling one Pauli per shot.
Because each shot draws an independent noise realisation *and* an
independent measurement outcome, the accumulated counts are exact
i.i.d. samples of the noisy distribution — unlike the trajectory
back-end, where the trajectory count bounds how well noise statistics
converge.  Channels that are not Pauli mixtures (amplitude damping,
coherent kicks) are rejected; ``auto`` dispatch falls back to the
trajectory method for those.

Deterministic (noise-free) programs skip per-shot work entirely: the
measured-qubit marginal of a stabilizer state is uniform over an affine
subspace, recovered exactly by replaying the measurement sequence once
per random-outcome direction (:func:`measurement_marginal`), and shots
are drawn with one multinomial — the same sampling step the exact
amplitude back-ends use.

**The shot-batched kernel.**  The per-shot stochastic path exploits a
structural invariant of Pauli noise: a Pauli conjugation only flips row
*signs* (phases), never x/z bits, and which measurement outcomes are
random is decided by x-columns alone.  So across shots the x/z word
matrices evolve *identically* — only the ``(2n,)`` phase vector
differs.  :func:`run_stabilizer_program` therefore evolves one packed
tableau through the stochastic suffix a single time, recording a
*trace* (per-channel anticommutation phase masks, per-measurement row
sets and cross-sign parities), then replays that trace over an
``(S, 2n)`` phase matrix covering every live shot at once — channel
sampling, phase accumulation, measurement outcomes and readout flips
are all vectorised NumPy ops over the shot axis.  The per-shot uniform
draw count is likewise structural, so drawing uniforms in shot-major
blocks consumes the PCG64 stream in exactly the order the historical
per-shot loop did: counts are **byte-identical at every batch size**
(``shot_batch=1`` is the sequential reference), so the batch knob is a
pure performance setting.

The circuit-to-program lowering (which channels fire where) lives in
:mod:`repro.backends.engine`; this module only knows how to run a
program.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.exceptions import SimulatorError
from repro.telemetry.spans import span as telemetry_span
from repro.utils.rng import as_generator

__all__ = [
    "DENSE_MARGINAL_MAX_QUBITS",
    "DEFAULT_SHOT_BATCH_BYTES",
    "MAX_MEASURED_QUBITS",
    "StabilizerProgram",
    "StabilizerTableau",
    "clifford_conjugation_table",
    "default_shot_batch",
    "is_clifford_matrix",
    "measurement_marginal",
    "pauli_channel_terms",
    "run_stabilizer_program",
]

_PAULI_1Q = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),  # X @ Z
}

#: matching a conjugated matrix entry against a Pauli pattern
_ATOL = 1e-9

#: gate sizes the table builder handles; the circuit library has no
#: 3+-qubit primitive gates, and 4**k patterns grow fast
MAX_CLIFFORD_QUBITS = 2


def _pauli_matrix(x_bits: int, z_bits: int, num_qubits: int) -> np.ndarray:
    """Matrix of the canonical Pauli ``X^x Z^z`` (qubit 0 = LSB)."""
    out = np.eye(1, dtype=complex)
    for j in reversed(range(num_qubits)):
        out = np.kron(out, _PAULI_1Q[((x_bits >> j) & 1, (z_bits >> j) & 1)])
    return out


def _decompose_pauli(
    matrix: np.ndarray,
) -> tuple[complex, int, int] | None:
    """Write ``matrix`` as ``c * X^x Z^z``, or ``None``.

    Exploits the Pauli support structure — column ``c`` has its single
    nonzero entry at row ``c ^ x`` with value ``(+/-1) * entry(0)`` —
    instead of scanning all ``4**k`` candidates.
    """
    dim = matrix.shape[0]
    column0 = np.flatnonzero(np.abs(matrix[:, 0]) > _ATOL)
    if column0.size != 1:
        return None
    x_bits = int(column0[0])
    scale = complex(matrix[x_bits, 0])
    z_bits = 0
    k = dim.bit_length() - 1
    for j in range(k):
        ratio = matrix[(1 << j) ^ x_bits, 1 << j] / scale
        if abs(ratio - 1.0) < 1e-6:
            pass
        elif abs(ratio + 1.0) < 1e-6:
            z_bits |= 1 << j
        else:
            return None
    if not np.allclose(
        matrix, scale * _pauli_matrix(x_bits, z_bits, k), atol=_ATOL
    ):
        return None
    return scale, x_bits, z_bits


class _CliffordTable:
    """Vectorized tableau update rule for one Clifford matrix.

    Entry ``a | (b << k)`` holds the image of ``X^a Z^b`` under
    conjugation: output X/Z bits per gate qubit plus the ``i^delta``
    phase increment.
    """

    __slots__ = ("num_qubits", "x", "z", "phase")

    def __init__(
        self,
        num_qubits: int,
        x: np.ndarray,
        z: np.ndarray,
        phase: np.ndarray,
    ) -> None:
        self.num_qubits = num_qubits
        self.x = x
        self.z = z
        self.phase = phase


@lru_cache(maxsize=4096)
def _conjugation_table_cached(
    dim: int, payload: bytes
) -> _CliffordTable | None:
    matrix = np.frombuffer(payload, dtype=complex).reshape(dim, dim)
    k = dim.bit_length() - 1
    patterns = 1 << (2 * k)
    x_table = np.zeros((patterns, k), dtype=bool)
    z_table = np.zeros((patterns, k), dtype=bool)
    phase_table = np.zeros(patterns, dtype=np.uint8)
    adjoint = matrix.conj().T
    for a in range(1 << k):
        for b in range(1 << k):
            conjugated = matrix @ _pauli_matrix(a, b, k) @ adjoint
            decomposed = _decompose_pauli(conjugated)
            if decomposed is None:
                return None
            scale, x_bits, z_bits = decomposed
            delta = int(round(np.angle(scale) / (np.pi / 2))) & 3
            if abs(scale - 1j**delta) > 1e-6:
                return None
            index = a | (b << k)
            for j in range(k):
                x_table[index, j] = (x_bits >> j) & 1
                z_table[index, j] = (z_bits >> j) & 1
            phase_table[index] = delta
    return _CliffordTable(k, x_table, z_table, phase_table)


def clifford_conjugation_table(
    matrix: np.ndarray,
) -> _CliffordTable | None:
    """Compile a unitary into a tableau update table, or ``None``.

    ``None`` means the matrix is not a Clifford operation (some Pauli
    conjugates to a non-Pauli), or acts on more than
    :data:`MAX_CLIFFORD_QUBITS` qubits.  Global phase is irrelevant —
    conjugation cancels it — so e.g. ``rz(pi/2)`` compiles to the S
    update even though its matrix is not literally S.  Results are
    cached by matrix content.
    """
    matrix = np.ascontiguousarray(np.asarray(matrix, dtype=complex))
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim) or dim & (dim - 1):
        raise SimulatorError(f"bad gate matrix shape {matrix.shape}")
    if dim > (1 << MAX_CLIFFORD_QUBITS):
        return None
    return _conjugation_table_cached(dim, matrix.tobytes())


def is_clifford_matrix(matrix: np.ndarray) -> bool:
    """Whether the tableau back-end can apply this unitary."""
    return clifford_conjugation_table(matrix) is not None


@lru_cache(maxsize=4096)
def _pauli_terms_cached(
    dim: int, payloads: tuple[bytes, ...]
) -> tuple[tuple[float, int, int], ...] | None:
    terms: list[tuple[float, int, int]] = []
    total = 0.0
    for payload in payloads:
        op = np.frombuffer(payload, dtype=complex).reshape(dim, dim)
        if float(np.abs(op).max()) < 1e-12:
            continue  # vanishing branch: contributes no probability
        decomposed = _decompose_pauli(op)
        if decomposed is None:
            return None
        scale, x_bits, z_bits = decomposed
        probability = float(abs(scale) ** 2)
        terms.append((probability, x_bits, z_bits))
        total += probability
    if not terms or abs(total - 1.0) > 1e-6:
        # Kraus completeness makes a genuine Pauli mixture sum to one;
        # anything else is not a Pauli channel
        return None
    return tuple(
        (probability / total, x_bits, z_bits)
        for probability, x_bits, z_bits in terms
    )


def pauli_channel_terms(
    kraus_ops: Sequence[np.ndarray],
) -> tuple[tuple[float, int, int], ...] | None:
    """Decompose a Kraus channel into a Pauli mixture, or ``None``.

    Returns ``((probability, x_bits, z_bits), ...)`` when every Kraus
    operator is proportional to a Pauli (depolarizing, dephasing,
    bit/phase-flip channels); ``None`` for anything else (amplitude
    damping, coherent over-rotation...), which the stabilizer back-end
    cannot represent.  Results are cached by operator content.
    """
    ops = [
        np.ascontiguousarray(np.asarray(op, dtype=complex))
        for op in kraus_ops
    ]
    if not ops:
        return None
    dim = ops[0].shape[0]
    return _pauli_terms_cached(dim, tuple(op.tobytes() for op in ops))


# ---------------------------------------------------------------------------
# packed bit-matrix primitives
# ---------------------------------------------------------------------------

_WORD_BITS = 64
_WORD_ONE = np.uint64(1)


def _word_count(num_qubits: int) -> int:
    return (num_qubits + _WORD_BITS - 1) // _WORD_BITS


def _column_bits(words: np.ndarray, qubit: int) -> np.ndarray:
    """Qubit ``qubit``'s bit of every row, as a bool vector."""
    shift = np.uint64(qubit & (_WORD_BITS - 1))
    return ((words[:, qubit >> 6] >> shift) & _WORD_ONE).astype(bool)


def _set_column_bits(
    words: np.ndarray, qubit: int, values: np.ndarray
) -> None:
    """Overwrite qubit ``qubit``'s bit of every row from a bool vector."""
    mask = _WORD_ONE << np.uint64(qubit & (_WORD_BITS - 1))
    column = qubit >> 6
    word = words[:, column]
    words[:, column] = np.where(values, word | mask, word & ~mask)


def _unpack_rows(words: np.ndarray, num_qubits: int) -> np.ndarray:
    """Packed ``(rows, W)`` words back to a ``(rows, n)`` bool matrix."""
    as_bytes = words.byteswap() if sys.byteorder == "big" else words
    bits = np.unpackbits(
        as_bytes.view(np.uint8).reshape(words.shape[0], -1),
        axis=1,
        bitorder="little",
    )
    return bits[:, :num_qubits].astype(bool)


# ---------------------------------------------------------------------------
# the tableau
# ---------------------------------------------------------------------------

class StabilizerTableau:
    """Destabilizer/stabilizer tableau of an ``n``-qubit state.

    Rows ``0..n-1`` are destabilizers, rows ``n..2n-1`` stabilizers;
    row ``r`` is the Pauli ``i^phase[r] * X^{x[r]} * Z^{z[r]}`` (X
    block before Z block, qubit 0 = LSB).  The initial state is
    ``|0...0>``: stabilizers ``Z_i``, destabilizers ``X_i``.

    The x/z blocks are bit-packed into ``(2n, ceil(n/64))`` ``uint64``
    word matrices (``x_words`` / ``z_words``); the :attr:`x` / :attr:`z`
    properties unpack read-only bool copies for inspection.
    """

    __slots__ = ("num_qubits", "num_words", "x_words", "z_words", "phase")

    def __init__(self, num_qubits: int) -> None:
        n = int(num_qubits)
        if n < 1:
            raise SimulatorError("tableau needs at least one qubit")
        self.num_qubits = n
        self.num_words = _word_count(n)
        self.x_words = np.zeros((2 * n, self.num_words), dtype=np.uint64)
        self.z_words = np.zeros((2 * n, self.num_words), dtype=np.uint64)
        self.phase = np.zeros(2 * n, dtype=np.uint8)
        index = np.arange(n)
        bit = _WORD_ONE << (index % _WORD_BITS).astype(np.uint64)
        self.x_words[index, index >> 6] = bit
        self.z_words[n + index, index >> 6] = bit

    def copy(self) -> "StabilizerTableau":
        out = object.__new__(StabilizerTableau)
        out.num_qubits = self.num_qubits
        out.num_words = self.num_words
        out.x_words = self.x_words.copy()
        out.z_words = self.z_words.copy()
        out.phase = self.phase.copy()
        return out

    @property
    def x(self) -> np.ndarray:
        """Unpacked ``(2n, n)`` bool copy of the X block (inspection)."""
        return _unpack_rows(self.x_words, self.num_qubits)

    @property
    def z(self) -> np.ndarray:
        """Unpacked ``(2n, n)`` bool copy of the Z block (inspection)."""
        return _unpack_rows(self.z_words, self.num_qubits)

    # ------------------------------------------------------------------
    def apply_clifford(
        self, table: _CliffordTable, qubits: Sequence[int]
    ) -> np.ndarray:
        """Conjugate every row through a compiled Clifford table.

        Returns the per-row ``i^delta`` phase increments it applied —
        the shot-batched kernel accumulates them as a shot-independent
        phase delta.
        """
        qubits = list(qubits)
        k = len(qubits)
        if k != table.num_qubits:
            raise SimulatorError(
                f"{table.num_qubits}-qubit table applied to {k} qubits"
            )
        patterns = np.zeros(self.x_words.shape[0], dtype=np.intp)
        for j, qubit in enumerate(qubits):
            patterns |= _column_bits(self.x_words, qubit).astype(np.intp) << j
            patterns |= (
                _column_bits(self.z_words, qubit).astype(np.intp) << (k + j)
            )
        for j, qubit in enumerate(qubits):
            _set_column_bits(self.x_words, qubit, table.x[patterns, j])
            _set_column_bits(self.z_words, qubit, table.z[patterns, j])
        delta = table.phase[patterns]
        self.phase = (self.phase + delta) & 3
        return delta

    def anticommutation_mask(
        self, x_bits: int, z_bits: int, qubits: Sequence[int]
    ) -> np.ndarray:
        """Which rows anticommute with the Pauli ``X^x Z^z`` on ``qubits``.

        ``parity(P.x & row.z) ^ parity(P.z & row.x)`` per row, as a bool
        vector — the sign-flip mask a Pauli conjugation applies.
        """
        anti = np.zeros(self.x_words.shape[0], dtype=bool)
        for j, qubit in enumerate(qubits):
            if (z_bits >> j) & 1:
                anti ^= _column_bits(self.x_words, qubit)
            if (x_bits >> j) & 1:
                anti ^= _column_bits(self.z_words, qubit)
        return anti

    def apply_pauli(
        self, x_bits: int, z_bits: int, qubits: Sequence[int]
    ) -> None:
        """Conjugate every row through a Pauli on ``qubits``.

        A Pauli flips the sign of exactly the rows it anticommutes
        with; x/z bits never change — the invariant the shot-batched
        kernel is built on.
        """
        anti = self.anticommutation_mask(x_bits, z_bits, qubits)
        self.phase = (self.phase + 2 * anti.astype(np.uint8)) & 3

    def _rows_times(self, rows: np.ndarray, source: int) -> np.ndarray:
        """``row <- row_source * row`` for every row index in ``rows``.

        Returns the per-row cross-term sign parities (0/1) — the
        shot-independent part of the phase update, recorded by the
        shot-batched kernel's measurement trace.
        """
        cross = (
            np.bitwise_count(self.z_words[source] & self.x_words[rows])
            .sum(axis=1)
            .astype(np.uint8)
            & 1
        )
        self.phase[rows] = (
            self.phase[rows] + self.phase[source] + 2 * cross
        ) & 3
        self.x_words[rows] ^= self.x_words[source]
        self.z_words[rows] ^= self.z_words[source]
        return cross

    def _measure_step(self, qubit: int):
        """Advance the tableau through one ``Z_qubit`` measurement.

        Performs every shot-independent part of the update (row
        products, destabilizer copy, pivot reset — the pivot phase is
        left at 0 for the caller to set from the outcome) and returns
        the structural record the shot-batched kernel replays:

        * random: ``(True, pivot, others, cross2)`` — ``others`` row
          indices got ``phase[pivot] + cross2`` added (mod 4);
        * deterministic: ``(False, rows, cross2_total, phase)`` — the
          outcome phase is ``(sum(phase[rows]) + cross2_total) & 3``
          (``phase`` evaluates it against the *current* phase vector).

        The deterministic corruption check runs here once: per-shot
        phase vectors differ from any reference only by even amounts,
        so row-phase parity — all the check reads — is shot-invariant.
        """
        n = self.num_qubits
        x_column = _column_bits(self.x_words, qubit)
        anticommuting = np.flatnonzero(x_column[n:])
        if anticommuting.size:
            pivot = int(anticommuting[0]) + n
            others = np.flatnonzero(x_column)
            others = others[others != pivot]
            cross2 = np.zeros(0, dtype=np.uint8)
            if others.size:
                cross2 = 2 * self._rows_times(others, pivot)
            self.x_words[pivot - n] = self.x_words[pivot]
            self.z_words[pivot - n] = self.z_words[pivot]
            self.phase[pivot - n] = self.phase[pivot]
            self.x_words[pivot] = 0
            self.z_words[pivot] = 0
            self.z_words[pivot, qubit >> 6] = _WORD_ONE << np.uint64(
                qubit & (_WORD_BITS - 1)
            )
            self.phase[pivot] = 0
            return True, pivot, others, cross2
        # deterministic: +/- Z_qubit is a product of the stabilizer
        # rows whose paired destabilizer anticommutes with Z_qubit
        rows = n + np.flatnonzero(x_column[:n])
        phase = 0
        cross2_total = 0
        x_acc = np.zeros(self.num_words, dtype=np.uint64)
        z_acc = np.zeros(self.num_words, dtype=np.uint64)
        for row in rows:
            cross = int(np.bitwise_count(z_acc & self.x_words[row]).sum()) & 1
            cross2_total += 2 * cross
            phase = (phase + int(self.phase[row]) + 2 * cross) & 3
            x_acc ^= self.x_words[row]
            z_acc ^= self.z_words[row]
        if x_acc.any() or phase & 1:
            raise SimulatorError(
                "tableau corrupted: deterministic measurement did not "
                "reduce to a Z operator"
            )
        return False, rows, cross2_total, phase

    def measure(
        self,
        qubit: int,
        rng: np.random.Generator | None = None,
        forced: int | None = None,
    ) -> tuple[int, bool]:
        """Measure ``Z_qubit``; returns ``(outcome, was_random)``.

        A random outcome draws one bit from ``rng`` unless ``forced``
        pins it (the exact-marginal reconstruction uses forced bits to
        walk the outcome subspace).  Deterministic outcomes consume no
        randomness and ignore both.
        """
        record = self._measure_step(qubit)
        if record[0]:
            pivot = record[1]
            if forced is not None:
                outcome = int(forced)
            elif rng is not None:
                outcome = int(rng.random() < 0.5)
            else:
                raise SimulatorError(
                    "random measurement outcome needs an rng or a "
                    "forced bit"
                )
            self.phase[pivot] = 2 * outcome
            return outcome, True
        phase = record[3]
        return (1 if phase == 2 else 0), False

    def __repr__(self) -> str:
        return f"StabilizerTableau({self.num_qubits} qubits)"


# ---------------------------------------------------------------------------
# compiled programs
# ---------------------------------------------------------------------------

class StabilizerProgram:
    """A compiled, shot-replayable Clifford+Pauli instruction stream.

    Steps are plain tuples shared (read-only) across shots:

    * ``("clifford", table, qubits)`` — deterministic tableau update;
    * ``("pauli", x_bits, z_bits, qubits)`` — deterministic sign flips
      (a one-term Pauli channel collapses to this);
    * ``("channel", cumulative, terms, qubits)`` — sample one Pauli of
      a mixture (exactly one uniform per shot per channel).
    """

    __slots__ = ("num_qubits", "steps", "_stochastic")

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = int(num_qubits)
        self.steps: list[tuple] = []
        self._stochastic = False

    def clifford(
        self, table: _CliffordTable, qubits: Sequence[int]
    ) -> None:
        self.steps.append(("clifford", table, tuple(qubits)))

    def pauli(
        self, x_bits: int, z_bits: int, qubits: Sequence[int]
    ) -> None:
        if x_bits or z_bits:
            self.steps.append(
                ("pauli", int(x_bits), int(z_bits), tuple(qubits))
            )

    def channel(
        self,
        terms: Sequence[tuple[float, int, int]],
        qubits: Sequence[int],
    ) -> None:
        terms = tuple(
            (float(p), int(x), int(z)) for p, x, z in terms if p > 0.0
        )
        if not terms:
            raise SimulatorError("empty Pauli channel")
        if len(terms) == 1:
            _, x_bits, z_bits = terms[0]
            self.pauli(x_bits, z_bits, qubits)
            return
        cumulative = np.cumsum([p for p, _, _ in terms])
        cumulative[-1] = max(cumulative[-1], 1.0)
        self.steps.append(("channel", cumulative, terms, tuple(qubits)))
        self._stochastic = True

    @property
    def is_stochastic(self) -> bool:
        """Whether replaying the program consumes randomness."""
        return self._stochastic

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        return (
            f"StabilizerProgram({self.num_qubits} qubits, "
            f"{len(self.steps)} steps, "
            f"{'stochastic' if self._stochastic else 'deterministic'})"
        )


def _replay(
    tableau: StabilizerTableau,
    steps: Sequence[tuple],
    rng: np.random.Generator | None,
) -> None:
    """Sequential step replay — the RNG-consumption reference.

    One uniform per channel step, in step order; the shot-batched trace
    replay consumes the stream in exactly this order per shot.
    """
    for step in steps:
        kind = step[0]
        if kind == "clifford":
            tableau.apply_clifford(step[1], step[2])
        elif kind == "pauli":
            tableau.apply_pauli(step[1], step[2], step[3])
        else:  # channel
            _, cumulative, terms, qubits = step
            pick = int(
                np.searchsorted(cumulative, rng.random(), side="right")
            )
            if pick >= len(terms):
                pick = len(terms) - 1
            _, x_bits, z_bits = terms[pick]
            if x_bits or z_bits:
                tableau.apply_pauli(x_bits, z_bits, qubits)


# ---------------------------------------------------------------------------
# measurement statistics
# ---------------------------------------------------------------------------

def _measure_sequence(
    tableau: StabilizerTableau,
    positions: Sequence[int],
    forced: dict[int, int],
) -> tuple[int, list[int]]:
    """Measure ``positions`` in order with pinned random choices.

    Returns the packed outcome (``positions[p]`` -> bit ``p``) and the
    sequence indices whose outcomes were random.  Which indices are
    random is structural — it never depends on the choices — and the
    outcome word is an affine function of the forced bits, which is
    what :func:`measurement_marginal` exploits.
    """
    outcome = 0
    random_indices: list[int] = []
    for p, qubit in enumerate(positions):
        bit, was_random = tableau.measure(qubit, forced=forced.get(p, 0))
        if was_random:
            random_indices.append(p)
        outcome |= bit << p
    return outcome, random_indices


def measurement_marginal(
    tableau: StabilizerTableau, positions: Sequence[int]
) -> np.ndarray:
    """Exact measured-qubit marginal of a stabilizer state.

    The distribution is uniform over an affine subspace
    ``b + span(v_1..v_r)`` of the outcome space: ``b`` comes from one
    measurement pass with every random choice forced to 0, and each
    basis direction ``v_j`` from a pass forcing only choice ``j`` to 1.
    ``r + 1`` tableau passes replace the ``2**n`` amplitude walk, and
    the probabilities are exact dyadics (``2**-r``), not accumulated
    floats.  ``positions[0]`` is the least-significant output bit,
    matching :func:`repro.utils.kernels.marginalize`.
    """
    positions = list(positions)
    if not positions:
        raise SimulatorError("measurement_marginal needs positions")
    base, random_indices = _measure_sequence(tableau.copy(), positions, {})
    indices = np.array([base], dtype=np.int64)
    for j in random_indices:
        flipped, _ = _measure_sequence(tableau.copy(), positions, {j: 1})
        indices = np.concatenate([indices, indices ^ (flipped ^ base)])
    if np.unique(indices).size != indices.size:
        raise SimulatorError(
            "stabilizer marginal reconstruction lost injectivity"
        )
    probabilities = np.zeros(1 << len(positions))
    probabilities[indices] = 1.0 / indices.size
    return probabilities


#: widest measured register the deterministic path materialises a dense
#: ``2**k`` marginal for; past it the tableau's polynomial memory is the
#: whole point, so measurement falls back to per-shot sampling
DENSE_MARGINAL_MAX_QUBITS = 26

#: outcome indices are packed into int64 counts arrays downstream
MAX_MEASURED_QUBITS = 62


# ---------------------------------------------------------------------------
# the shot-batched stochastic kernel
# ---------------------------------------------------------------------------

#: live batch state budget: the (S, 2n) phase matrix plus the (S, D)
#: uniform block plus outcome vectors stay inside ~64 MiB by default
DEFAULT_SHOT_BATCH_BYTES = 1 << 26


def default_shot_batch(num_rows: int, draws_per_shot: int) -> int:
    """How many shots the batched kernel stacks per round by default.

    ``num_rows`` is the tableau height (``2n``); ``draws_per_shot`` the
    structural uniform count per shot.  Sized so one round's live state
    fits :data:`DEFAULT_SHOT_BATCH_BYTES`.  Any value is byte-identical
    — this only trades memory against vectorisation width.
    """
    per_shot = num_rows + 8 * max(1, draws_per_shot) + 16
    return max(1, DEFAULT_SHOT_BATCH_BYTES // per_shot)


def _compile_shot_trace(
    base: StabilizerTableau,
    suffix: Sequence[tuple],
    measured_positions: Sequence[int],
) -> tuple[list[tuple], int]:
    """One structural pass: evolve x/z once, record the per-shot plan.

    Pauli conjugation never touches x/z bits and which measurements are
    random depends on x-columns only, so the packed x/z evolution —
    and everything derived from it — is identical across shots.  The
    returned trace ops reference only the ``(S, 2n)`` phase matrix:

    * ``("phase", delta)`` — shot-independent phase increments
      (Clifford deltas, deterministic Paulis), merged between
      consumption points (mod-4 addition commutes);
    * ``("channel", cumulative, anti2)`` — one uniform per shot picks a
      term; ``anti2[t]`` is term ``t``'s ``2 * anticommutation`` mask;
    * ``("random", position, pivot, others, cross2)`` — one uniform per
      shot decides the outcome bit after the recorded row products;
    * ``("deterministic", position, rows, cross2_total)`` — the outcome
      reads ``(sum(phase[rows]) + cross2_total) & 3``, no randomness.

    Also returns the per-shot uniform draw count (channels + random
    measurements; the readout block adds its own), which is structural
    — the invariant that lets uniforms be drawn in shot-major blocks
    without perturbing the sequential RNG stream.
    """
    tableau = base.copy()
    num_rows = 2 * tableau.num_qubits
    trace: list[tuple] = []
    pending = np.zeros(num_rows, dtype=np.uint8)
    draws = 0

    def flush() -> None:
        nonlocal pending
        if pending.any():
            trace.append(("phase", pending))
            pending = np.zeros(num_rows, dtype=np.uint8)

    for step in suffix:
        kind = step[0]
        if kind == "clifford":
            delta = tableau.apply_clifford(step[1], step[2])
            pending = (pending + delta) & 3
        elif kind == "pauli":
            anti = tableau.anticommutation_mask(step[1], step[2], step[3])
            pending = (pending + 2 * anti.astype(np.uint8)) & 3
        else:  # channel
            _, cumulative, terms, qubits = step
            anti2 = np.zeros((len(terms), num_rows), dtype=np.uint8)
            for t, (_, x_bits, z_bits) in enumerate(terms):
                if x_bits or z_bits:
                    anti2[t] = 2 * tableau.anticommutation_mask(
                        x_bits, z_bits, qubits
                    ).astype(np.uint8)
            trace.append(("channel", cumulative, anti2))
            draws += 1
    for position, qubit in enumerate(measured_positions):
        flush()
        record = tableau._measure_step(qubit)
        if record[0]:
            _, pivot, others, cross2 = record
            trace.append(("random", position, pivot, others, cross2))
            draws += 1
        else:
            _, rows, cross2_total, _ = record
            trace.append(("deterministic", position, rows, cross2_total))
    return trace, draws


def _replay_shot_trace(
    trace: Sequence[tuple],
    base_phase: np.ndarray,
    num_qubits: int,
    count: int,
    uniforms: np.ndarray,
    readout,
    num_measured: int,
) -> np.ndarray:
    """Run one batch of shots through a compiled trace.

    ``uniforms`` is the ``(count, draws)`` shot-major block; column
    consumption order (channels in step order, then random measurements
    in position order, then readout qubits) matches the per-shot scalar
    draw order of the sequential reference exactly.
    """
    phases = np.repeat(base_phase[np.newaxis, :], count, axis=0)
    outcomes = np.zeros(count, dtype=np.int64)
    column = 0
    for op in trace:
        kind = op[0]
        if kind == "phase":
            phases += op[1]
            phases &= 3
        elif kind == "channel":
            _, cumulative, anti2 = op
            picks = np.searchsorted(
                cumulative, uniforms[:, column], side="right"
            )
            column += 1
            np.minimum(picks, len(anti2) - 1, out=picks)
            phases += anti2[picks]
            phases &= 3
        elif kind == "random":
            _, position, pivot, others, cross2 = op
            if others.size:
                phases[:, others] = (
                    phases[:, others]
                    + phases[:, pivot][:, np.newaxis]
                    + cross2
                ) & 3
            phases[:, pivot - num_qubits] = phases[:, pivot]
            bits = uniforms[:, column] < 0.5
            column += 1
            phases[:, pivot] = 2 * bits.astype(np.uint8)
            outcomes |= bits.astype(np.int64) << position
        else:  # deterministic
            _, position, rows, cross2_total = op
            total = (
                phases[:, rows].sum(axis=1, dtype=np.int64) + cross2_total
            ) & 3
            outcomes |= (total == 2).astype(np.int64) << position
    if readout is not None:
        # vectorised ReadoutError.sample_index: one uniform per qubit,
        # in qubit order, compared against P(read 1 | prepared bit)
        noisy = np.zeros(count, dtype=np.int64)
        for q in range(num_measured):
            mat = readout.assignment_matrices[q]
            prepared = (outcomes >> q) & 1
            threshold = np.where(prepared == 1, mat[1, 1], mat[1, 0])
            flips = uniforms[:, column] < threshold
            column += 1
            noisy |= flips.astype(np.int64) << q
        outcomes = noisy
    return outcomes


def run_stabilizer_program(
    program: StabilizerProgram,
    shots: int,
    seed: int | None | np.random.Generator,
    measured_positions: Sequence[int],
    readout=None,
    shot_batch: int | None = None,
) -> tuple[dict[int, int], bool]:
    """Accumulate measurement counts for a compiled program.

    ``measured_positions`` are the (local) qubit positions packed into
    the outcome index (``positions[0]`` = output LSB); ``readout`` is
    an optional :class:`~repro.noise.readout.ReadoutError` already
    restricted to the measured qubits.

    ``shots=0`` returns empty counts immediately — no tableau work, no
    RNG consumption.

    Deterministic programs measuring at most
    :data:`DENSE_MARGINAL_MAX_QUBITS` qubits evolve the tableau once,
    reconstruct the exact marginal and draw a single multinomial — the
    same sampling the exact amplitude back-ends perform, so a noiseless
    Clifford circuit reproduces their seeded counts.  Everything else
    (stochastic programs, or measured registers too wide for a dense
    ``2**k`` marginal) runs the shot-batched kernel: one structural
    x/z pass compiles a trace, then batches of ``shot_batch`` shots
    replay it as vectorised ops over an ``(S, 2n)`` phase matrix —
    fresh Pauli sample, fresh measurement randomness, per-shot readout
    flips; every shot an exact i.i.d. draw, in polynomial memory.
    ``shot_batch`` (default: sized by :func:`default_shot_batch`) is
    byte-identical at every value — ``1`` is the sequential reference.

    Returns ``(counts, per_shot)``: sparse ``{outcome_index: count}``
    over the measured qubits, plus which sampling path ran.
    """
    measured_positions = list(measured_positions)
    if not measured_positions:
        raise SimulatorError("run_stabilizer_program needs positions")
    if len(measured_positions) > MAX_MEASURED_QUBITS:
        raise SimulatorError(
            f"{len(measured_positions)} measured qubits cannot be "
            f"packed into one int64 outcome index (max "
            f"{MAX_MEASURED_QUBITS}); measure fewer qubits per circuit"
        )
    if shots < 0:
        raise SimulatorError("shots must be >= 0")
    if shot_batch is not None and shot_batch < 1:
        raise SimulatorError("shot_batch must be >= 1")
    if shots == 0:
        return {}, False
    rng = as_generator(seed)
    n = program.num_qubits

    if (
        not program.is_stochastic
        and len(measured_positions) <= DENSE_MARGINAL_MAX_QUBITS
    ):
        tableau = StabilizerTableau(n)
        _replay(tableau, program.steps, None)
        marginal = measurement_marginal(tableau, measured_positions)
        if readout is not None:
            marginal = readout.apply_to_probabilities(marginal)
        counts_raw = rng.multinomial(shots, marginal / marginal.sum())
        observed = np.flatnonzero(counts_raw)
        return {int(i): int(counts_raw[i]) for i in observed}, False

    # deterministic prefix shared across shots; only the suffix from
    # the first stochastic step enters the per-shot trace
    first = next(
        (
            index
            for index, step in enumerate(program.steps)
            if step[0] == "channel"
        ),
        len(program.steps),
    )
    base = StabilizerTableau(n)
    _replay(base, program.steps[:first], None)
    trace, draws = _compile_shot_trace(
        base, program.steps[first:], measured_positions
    )
    if readout is not None:
        draws += len(measured_positions)
    batch = (
        int(shot_batch)
        if shot_batch is not None
        else default_shot_batch(2 * n, draws)
    )
    outcomes = np.empty(int(shots), dtype=np.int64)
    start = 0
    while start < shots:
        count = min(batch, int(shots) - start)
        with telemetry_span(
            "stabilizer.shot_batch", start=start, live=count
        ):
            uniforms = (
                rng.random((count, draws))
                if draws
                else np.empty((count, 0))
            )
            outcomes[start:start + count] = _replay_shot_trace(
                trace,
                base.phase,
                n,
                count,
                uniforms,
                readout,
                len(measured_positions),
            )
        start += count
    values, frequencies = np.unique(outcomes, return_counts=True)
    return (
        {int(v): int(c) for v, c in zip(values, frequencies)},
        True,
    )
