"""Pass manager and preset transpilation pipelines."""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import TranspilerError
from repro.transpiler.coupling import CouplingMap
from repro.transpiler.passes.basis import DEFAULT_BASIS, BasisTranslation
from repro.transpiler.passes.cancellation import (
    CommutativeCancellation,
    SelfInverseCancellation,
)
from repro.transpiler.passes.fusion import PhaseGadgetFusion
from repro.transpiler.passes.layout import SabreLayout
from repro.transpiler.passes.resynthesis import SingleQubitResynthesis
from repro.transpiler.passes.routing import SabreSwap

Pass = Callable[[QuantumCircuit, "TranspileContext"], QuantumCircuit]


@dataclass
class TranspileContext:
    """State shared between passes during one transpilation."""

    initial_layout: dict[int, int] | None = None
    final_layout: dict[int, int] | None = None
    seed: int | None = None
    schedule: object = None
    properties: dict = field(default_factory=dict)


class PassManager:
    """Run a sequence of passes over a circuit."""

    def __init__(self, passes: Sequence[Pass] = ()) -> None:
        self.passes: list[Pass] = list(passes)

    def append(self, pass_: Pass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def run(
        self,
        circuit: QuantumCircuit,
        context: TranspileContext | None = None,
    ) -> QuantumCircuit:
        context = context if context is not None else TranspileContext()
        current = circuit
        for pass_ in self.passes:
            current = pass_(current, context)
        # record layouts on the circuit for downstream consumers
        if context.initial_layout is not None:
            current.metadata["initial_layout"] = dict(context.initial_layout)
        if context.final_layout is not None:
            current.metadata["final_layout"] = dict(context.final_layout)
        return current


def preset_pass_manager(
    coupling: CouplingMap,
    optimization_level: int = 1,
    basis: frozenset[str] | set[str] = DEFAULT_BASIS,
    initial_layout: Sequence[int] | Mapping[int, int] | None = None,
    seed: int | None = None,
) -> PassManager:
    """The default pipelines.

    Level 0: route (given/trivial layout) + basis translation.
    Level 1: + self-inverse cancellation.
    Level 2: + pre-routing logical optimization (phase-gadget fusion,
    commutative cancellation), SABRE layout search (when no layout
    given), and a post-basis optimization round (commutative
    cancellation, fusion, single-qubit run resynthesis).
    Level 3: level 2 with more SABRE trials and a second post-basis
    optimization round.
    """
    if optimization_level not in (0, 1, 2, 3):
        raise TranspilerError(
            f"optimization_level must be 0-3, got {optimization_level}"
        )
    pm = PassManager()
    if optimization_level >= 2:
        # logical-level cleanup first: fewer gates to lay out and route
        pm.append(PhaseGadgetFusion())
        pm.append(CommutativeCancellation())
        if initial_layout is None:
            trials = 3 if optimization_level == 2 else 6
            pm.append(SabreLayout(coupling, trials=trials, seed=seed))
    pm.append(SabreSwap(coupling, initial_layout=initial_layout, seed=seed))
    pm.append(BasisTranslation(basis))
    if optimization_level == 1:
        pm.append(SelfInverseCancellation())
    elif optimization_level >= 2:
        rounds = 1 if optimization_level == 2 else 2
        for _ in range(rounds):
            pm.append(CommutativeCancellation())
            pm.append(PhaseGadgetFusion())
            pm.append(SingleQubitResynthesis(basis))
    return pm


def transpile(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    optimization_level: int = 1,
    basis: frozenset[str] | set[str] = DEFAULT_BASIS,
    initial_layout: Sequence[int] | Mapping[int, int] | None = None,
    seed: int | None = None,
) -> QuantumCircuit:
    """Route + translate + optimise ``circuit`` for a coupling map.

    The returned circuit acts on physical qubits (device width) and
    records its wire mapping in ``metadata["initial_layout"]`` /
    ``metadata["final_layout"]``.
    """
    pm = preset_pass_manager(
        coupling, optimization_level, basis, initial_layout, seed
    )
    return pm.run(circuit, TranspileContext(seed=seed))
