"""Transpile each circuit structure once; bind every evaluation's angles.

Machine-in-loop training hands :meth:`ExecutionPipeline.prepare
<repro.core.training.ExecutionPipeline.prepare>` one circuit structure
per model, with new angles, on every optimizer evaluation.  So a
structure is transpiled once, on a copy whose parameters and global
phase are :class:`Slot` objects, and later evaluations bind their
numbers into that :class:`CircuitTemplate`.

A slot is a :class:`~repro.circuits.parameter.ParameterExpression`, so
gates keep it as a parameter and
:func:`~repro.transpiler.passes.rules.zero_rotation_phase` answers "not
removable".  Every ``+ - * /`` (and reflected form) and unary ``-`` a
pass applies to a slot is appended to a :class:`Tape`, operands in the
order given, with no simplification; a bind replays the same float
operations on the evaluation's numbers, so it equals a fresh transpile
bit for bit.  Two checks keep it so (PERFORMANCE.md, "Transpile once per
circuit structure"):

* the bind falls back to a fresh transpile when a value derived from a
  gate angle is not finite or lies within ``ANGLE_TOL`` of a multiple
  of 2π, where ``zero_rotation_phase`` might have answered "removable";
* any other use of a slot's number raises
  :class:`~repro.exceptions.ParameterError`, and a build that raises a
  :class:`~repro.exceptions.ReproError` leaves its structure
  untemplated (pulse-efficient RZZ lowering needs concrete angles).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable

from repro.circuits.circuit import CircuitInstruction, QuantumCircuit
from repro.circuits.gates import (
    Barrier,
    Delay,
    Measure,
    PulseGate,
    StandardGate,
)
from repro.circuits.parameter import ParameterExpression
from repro.exceptions import ParameterError, ReproError, TranspilerError
from repro.telemetry.metrics import inc as metric_inc
from repro.transpiler.passes.rules import ANGLE_TOL, ROTATION_PERIODS
from repro.utils.cache import LRUCache, caching_enabled

#: structures one pipeline keeps a template for; a training run sends
#: one structure per model, so this only bounds unusual callers
TEMPLATE_CACHE_SIZE = 64

#: a value within ANGLE_TOL of a multiple of this may be a removable
#: rotation for ``zero_rotation_phase``
_GUARD_PERIOD = min(ROTATION_PERIODS.values())

#: gates whose parameters can reach ``zero_rotation_phase``: the
#: mergeable rotations, and every gate basis translation lowers into
#: ``rz`` angles
_ANGLE_GATES = frozenset(ROTATION_PERIODS) | {"u", "u3"}

#: operations the passes treat by type, name, qubits and parameters
#: alone (a UnitaryGate's lowering reads its matrix, so it is not here)
_TRACEABLE = (StandardGate, PulseGate, Barrier, Measure, Delay)

#: the metadata entries the pipeline's transpile adds (dicts, copied
#: fresh into every bound circuit)
_LAYOUT_KEYS = ("initial_layout", "final_layout")

_METRIC = "transpile.templates"


def _negate(value, _unused):
    return -value


def _recorder(fn: Callable) -> tuple[Callable, Callable]:
    """A :class:`Slot`'s method for ``fn`` and its reflected form, each
    recording the operands in the order Python hands them over."""

    def forward(self, other):
        return self._tape.record(fn, self, other)

    def reflected(self, other):
        return self._tape.record(fn, other, self)

    return forward, reflected


class Tape:
    """The values of one trace: inputs first, then recorded results.

    ``program`` holds one ``(fn, lhs, rhs)`` per recorded value: ``fn``
    applied to the values at positions ``lhs`` and ``rhs``, or, when
    ``fn`` is None, the constant ``lhs``.  ``guarded[i]`` says whether
    value ``i`` derives from a gate angle.
    """

    def __init__(self, guarded_inputs: list[bool]) -> None:
        self.guarded = list(guarded_inputs)
        self.program: list[tuple] = []

    def position(self, operand) -> int:
        """Tape position of a slot, recording a number as a constant."""
        if isinstance(operand, Slot):
            if operand._tape is not self:
                raise ParameterError(f"{operand!r} belongs to another trace")
            return operand._index
        if isinstance(operand, (int, float)):
            return self._push(None, operand, None, False)
        raise ParameterError(
            f"cannot record arithmetic on a {type(operand).__name__}"
        )

    def record(self, fn: Callable, lhs, rhs) -> "Slot":
        a = self.position(lhs)
        b = self.position(rhs)
        guarded = self.guarded[a] or self.guarded[b]
        return Slot(self, self._push(fn, a, b, guarded))

    def _push(self, fn, lhs, rhs, guarded: bool) -> int:
        self.program.append((fn, lhs, rhs))
        self.guarded.append(guarded)
        return len(self.guarded) - 1

    def evaluate(self, values: list) -> list:
        """Extend the input ``values`` in place with every recorded one."""
        for fn, lhs, rhs in self.program:
            values.append(lhs if fn is None else fn(values[lhs], values[rhs]))
        return values


class Slot(ParameterExpression):
    """One value on a :class:`Tape`: an input, or a recorded result.

    Arithmetic records a tape node.  Equality and hashing are by
    identity, and ``repr`` names the tape position, so the cancellation
    pass's fixed-point test (``str`` of every parameter) tells slots
    apart.  Every use that needs the number raises
    :class:`~repro.exceptions.ParameterError`.
    """

    __slots__ = ("_tape", "_index")

    def __init__(self, tape: Tape, index: int) -> None:
        # ParameterExpression's linear form is deliberately left unset:
        # its arithmetic folds constants and divides by multiplying with
        # the reciprocal, which would not reproduce the passes' bits
        self._tape = tape
        self._index = index

    __add__, __radd__ = _recorder(operator.add)
    __sub__, __rsub__ = _recorder(operator.sub)
    __mul__, __rmul__ = _recorder(operator.mul)
    __truediv__, __rtruediv__ = _recorder(operator.truediv)

    def __neg__(self):
        return self._tape.record(_negate, self, self)

    def __eq__(self, other) -> bool:
        return self is other

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"<slot {self._index}>"

    def _unknown(self, *args):
        raise ParameterError(
            f"{self!r} is a transpile-template slot: its number is not "
            f"known while a structure is traced"
        )

    __float__ = __int__ = __index__ = __complex__ = __bool__ = _unknown
    __lt__ = __le__ = __gt__ = __ge__ = _unknown
    __abs__ = __round__ = __trunc__ = __floor__ = __ceil__ = _unknown
    __mod__ = __rmod__ = __floordiv__ = __rfloordiv__ = _unknown
    __divmod__ = __rdivmod__ = __pow__ = __rpow__ = _unknown
    bind = coefficient = _unknown
    parameters = is_constant = constant_value = property(_unknown)


def structure_of(circuit: QuantumCircuit) -> tuple[tuple, list]:
    """(structure key, input values) of a circuit.

    The key holds everything the passes branch on: the register sizes
    and, per instruction, the operation's type, name, qubits, clbits and
    parameter count.  The values are the global phase followed by every
    parameter in instruction order -- the tape's inputs.
    """
    key: list = [circuit.num_qubits, circuit.num_clbits]
    values: list = [circuit.global_phase]
    for inst in circuit.instructions:
        op = inst.operation
        params = op.params
        key.append((type(op), op.name, inst.qubits, inst.clbits, len(params)))
        values += params
    return tuple(key), values


class CircuitTemplate:
    """A transpiled structure whose parameters are tape positions.

    Output instructions come in three kinds: an input operation a pass
    emitted unchanged (taken from the evaluation's own circuit at bind,
    so pulse gates keep their unitary, duration and identity), a
    standard gate carrying a traced parameter (rebuilt from the replayed
    values), and a gate the passes created from constants alone (``sx``,
    ``cx``, ``rz(π/2)``), whose immutable record every bound circuit
    shares.
    """

    def __init__(self, tape, guarded, phase, entries, width, clbits, layouts):
        self._tape = tape
        self._guarded = guarded
        self._phase = phase
        self._entries = entries
        self._num_qubits = width
        self._num_clbits = clbits
        self._layouts = layouts

    @classmethod
    def build(
        cls,
        circuit: QuantumCircuit,
        transpile: Callable[[QuantumCircuit], QuantumCircuit],
    ) -> "CircuitTemplate | None":
        """Trace ``transpile`` over ``circuit``'s structure; None if it
        cannot be traced."""
        try:
            template = cls._trace(circuit, transpile)
        except ReproError:
            return None
        metric_inc(_METRIC, outcome="built")
        return template

    @classmethod
    def _trace(cls, circuit, transpile) -> "CircuitTemplate":
        guarded = [False]  # the global phase
        for inst in circuit.instructions:
            op = inst.operation
            if type(op) not in _TRACEABLE:
                raise TranspilerError(f"cannot template {op!r}")
            guarded += [op.name in _ANGLE_GATES] * len(op.params)
        tape = Tape(guarded)
        traced = QuantumCircuit(
            circuit.num_qubits, circuit.num_clbits, circuit.name
        )
        traced.global_phase = Slot(tape, 0)
        traced.calibrations = dict(circuit.calibrations)
        traced.metadata = dict(circuit.metadata)
        # one copy per instruction, even of a shared operation, so an
        # emitted copy names the input position it came from
        copies: dict[int, int] = {}
        index = 1
        for position, inst in enumerate(circuit.instructions):
            op = inst.operation.copy()
            count = len(op.params)
            op.params = [Slot(tape, i) for i in range(index, index + count)]
            index += count
            copies[id(op)] = position
            traced.instructions.append(
                CircuitInstruction(op, inst.qubits, inst.clbits)
            )
        out = transpile(traced)

        entries = []
        for inst in out.instructions:
            op = inst.operation
            position = copies.get(id(op))
            rebuild = shared = None
            if position is None:
                if type(op) is not StandardGate:
                    raise TranspilerError(f"cannot template emitted {op!r}")
                if any(isinstance(p, Slot) for p in op.params):
                    rebuild = (op.name, [tape.position(p) for p in op.params])
                else:
                    shared = inst
            entries.append((position, rebuild, shared, inst.qubits, inst.clbits))
        phase = tape.position(out.global_phase)
        layouts = [(key, dict(out.metadata[key])) for key in _LAYOUT_KEYS]
        guarded = [i for i, flag in enumerate(tape.guarded) if flag]
        return cls(
            tape, guarded, phase, entries,
            out.num_qubits, out.num_clbits, layouts,
        )

    def bind(
        self, circuit: QuantumCircuit, values: list
    ) -> QuantumCircuit | None:
        """The transpiled circuit at ``values`` (from :func:`structure_of`
        of ``circuit``, extended in place); None when the guard refuses."""
        values = self._tape.evaluate(values)
        for i in self._guarded:
            value = values[i]
            if not math.isfinite(value) or (
                abs(math.remainder(value, _GUARD_PERIOD)) < ANGLE_TOL
            ):
                return None
        source = circuit.instructions
        instructions = []
        for position, rebuild, shared, qubits, clbits in self._entries:
            if shared is not None:
                instructions.append(shared)
                continue
            if rebuild is None:
                op = source[position].operation
            else:
                name, params = rebuild
                op = StandardGate(name, [values[i] for i in params])
            instructions.append(CircuitInstruction(op, qubits, clbits))
        out = QuantumCircuit(self._num_qubits, self._num_clbits, circuit.name)
        out.instructions = instructions
        out.global_phase = values[self._phase]
        out.calibrations = dict(circuit.calibrations)
        out.metadata = dict(circuit.metadata)
        for key, layout in self._layouts:
            out.metadata[key] = dict(layout)
        return out


def transpile_with_templates(
    templates: LRUCache,
    circuit: QuantumCircuit,
    transpile: Callable[[QuantumCircuit], QuantumCircuit],
) -> QuantumCircuit:
    """``transpile(circuit)``, bound from a cached template when possible.

    ``templates`` maps structure keys to templates (or None for a
    structure that cannot be traced) and must belong to one
    ``transpile``.  A circuit with symbolic parameters, a structure
    without a template, and a bind the guard refuses all take
    ``transpile`` itself; so does every call under
    :class:`~repro.utils.cache.caching_disabled`.
    """
    if not caching_enabled():
        return transpile(circuit)
    key, values = structure_of(circuit)
    template = None
    if not any(isinstance(v, ParameterExpression) for v in values):
        template = templates.get_or_compute(
            key, lambda: CircuitTemplate.build(circuit, transpile)
        )
    if template is None:
        metric_inc(_METRIC, outcome="untraceable")
        return transpile(circuit)
    bound = template.bind(circuit, values)
    if bound is None:
        metric_inc(_METRIC, outcome="fallback")
        return transpile(circuit)
    metric_inc(_METRIC, outcome="bound")
    return bound
