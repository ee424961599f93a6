"""The pluggable simulation-method registry.

Every simulation back-end the execution engine can dispatch to is
described by a :class:`MethodDescriptor` and registered here.  The
engine (:mod:`repro.backends.engine`) registers the four built-in
methods — ``density_matrix``, ``statevector``, ``trajectory`` and
``stabilizer`` — on import; anything else (a GPU kernel back-end, a
tensor-network contractor) plugs in through the same
:func:`register_method` call and immediately participates in ``auto``
dispatch, budget enforcement, the CLI ``--method`` choices and the
service store fingerprint.

A descriptor carries everything the engine's front-end needs to treat
the method as a black box:

* ``supports(plan, noise_model)`` — capability predicate: can this
  method produce exact (or, for ``statistical`` methods, statistically
  equivalent) counts for the circuit/noise combination?
* ``cost(plan, noise_model)`` — the cost model: a unitless work
  estimate ``auto`` ranks candidates by (see :func:`rank_methods`);
* ``execute(plan, request)`` — the entry point the engine dispatches
  to once a method is resolved;
* ``default_qubit_budget`` / ``escape_hatch`` — the shipped
  active-qubit cap and the method-specific advice appended to the
  budget-exceeded error;
* ``version`` — bumped when the method's sampling semantics change;
  the service store fingerprint folds it in (SERVICE.md, fingerprint
  v4) so stale cached counts can never be served across a semantic
  change;
* ``state_bytes(num_qubits)`` — optional memory model used by
  :func:`autodetect_method_budgets` to derive RAM-based budgets.

Budgets are dynamic: the current value is the descriptor default unless
overridden via :func:`set_method_qubit_budget`.  The execution service
serializes the current budgets into every shard dispatch
(:func:`method_qubit_budgets` / :func:`adopt_method_budgets`) so pool
workers resolve ``auto`` exactly like the parent even after runtime
budget changes.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro.exceptions import BackendError

__all__ = [
    "AUTO_METHOD",
    "MethodDescriptor",
    "adopt_method_budgets",
    "autodetect_method_budgets",
    "available_memory_bytes",
    "check_method_name",
    "check_qubit_budget",
    "default_method_qubit_budgets",
    "method_descriptor",
    "method_names",
    "method_qubit_budget",
    "method_qubit_budgets",
    "rank_methods",
    "register_method",
    "registered_methods",
    "set_method_qubit_budget",
    "unregister_method",
]

#: the one method name that is never a registered back-end: it resolves
#: to the cheapest registered method accepting the circuit
AUTO_METHOD = "auto"


@dataclass(frozen=True)
class MethodDescriptor:
    """Everything the engine needs to dispatch to one back-end."""

    #: user-facing method name (the ``method=`` string)
    name: str
    #: capability predicate over ``(_CircuitPlan, noise_model)``
    supports: Callable
    #: unitless work estimate over ``(_CircuitPlan, noise_model)``
    cost: Callable
    #: ``execute(plan, request) -> ExperimentResult`` entry point
    execute: Callable
    #: shipped active-qubit cap (overridable at runtime)
    default_qubit_budget: int
    #: method-specific advice appended to the budget-exceeded error
    escape_hatch: str = ""
    #: True when counts are statistically equivalent rather than exact
    #: samples of the requested distribution; ``auto`` prefers exact
    #: methods and only falls back to statistical ones on cost
    statistical: bool = False
    #: folded into the service store fingerprint (v4): bump when the
    #: method's seeded sampling semantics change
    version: int = 1
    #: optional ``f(num_qubits) -> bytes`` memory model for RAM-derived
    #: budgets (None = not memory-bound, budget stays at the default)
    state_bytes: Callable | None = None


_REGISTRY: dict[str, MethodDescriptor] = {}
_budget_overrides: dict[str, int] = {}


def _ensure_builtins() -> None:
    # the built-in descriptors register when the engine module loads;
    # importing it lazily here makes the registry self-sufficient for
    # callers that reach it first (sys.modules makes this a no-op on
    # every call after the first, including mid-engine-import)
    if "repro.backends.engine" not in sys.modules:
        import repro.backends.engine  # noqa: F401


def register_method(
    descriptor: MethodDescriptor, replace: bool = False
) -> MethodDescriptor:
    """Register a simulation back-end; returns the descriptor.

    Registration order is meaningful: it breaks cost ties in ``auto``
    ranking and orders user-facing method listings.
    """
    _ensure_builtins()  # a plugin must collide with built-ins *now*,
    # not later when the engine import trips over the taken name
    name = descriptor.name
    if not name or name == AUTO_METHOD:
        raise BackendError(
            f"invalid method name {name!r}: must be a non-empty string "
            f"other than {AUTO_METHOD!r}"
        )
    if name in _REGISTRY and not replace:
        raise BackendError(
            f"simulation method {name!r} is already registered; pass "
            f"replace=True to override it"
        )
    if descriptor.default_qubit_budget < 1:
        raise BackendError("default_qubit_budget must be >= 1")
    _REGISTRY[name] = descriptor
    return descriptor


def unregister_method(name: str) -> None:
    """Remove a registered back-end (and its budget override)."""
    _ensure_builtins()
    if name not in _REGISTRY:
        raise BackendError(f"simulation method {name!r} is not registered")
    del _REGISTRY[name]
    _budget_overrides.pop(name, None)


def registered_methods() -> tuple[MethodDescriptor, ...]:
    """All registered descriptors, in registration order."""
    _ensure_builtins()
    return tuple(_REGISTRY.values())


def method_descriptor(name: str) -> MethodDescriptor:
    """Look up one registered back-end by name."""
    check_method_name(name, concrete=True)
    return _REGISTRY[name]


def method_names(include_auto: bool = False) -> tuple[str, ...]:
    """Registered method names (optionally with ``"auto"`` first)."""
    _ensure_builtins()
    names = tuple(_REGISTRY)
    return ((AUTO_METHOD,) + names) if include_auto else names


def check_method_name(method: str, concrete: bool = False) -> None:
    """Raise for unknown names; the error lists what *is* registered."""
    _ensure_builtins()
    if method in _REGISTRY or (not concrete and method == AUTO_METHOD):
        return
    raise BackendError(
        f"unknown simulation method {method!r}; choose from "
        f"{method_names(include_auto=not concrete)}"
    )


# ---------------------------------------------------------------------------
# qubit budgets
# ---------------------------------------------------------------------------

def method_qubit_budget(method: str) -> int:
    """The active-qubit budget currently enforced for ``method``."""
    descriptor = method_descriptor(method)
    return _budget_overrides.get(method, descriptor.default_qubit_budget)


def method_qubit_budgets() -> dict[str, int]:
    """Snapshot (a copy) of every budget currently in force.

    The execution service serializes this snapshot into every shard it
    dispatches, so ``auto`` resolves identically in every worker
    process even after :func:`set_method_qubit_budget` calls in the
    parent (see :func:`adopt_method_budgets`).
    """
    _ensure_builtins()
    return {name: method_qubit_budget(name) for name in _REGISTRY}


def default_method_qubit_budgets() -> dict[str, int]:
    """The shipped per-method budgets (ignoring runtime overrides)."""
    _ensure_builtins()
    return {
        name: descriptor.default_qubit_budget
        for name, descriptor in _REGISTRY.items()
    }


def set_method_qubit_budget(method: str, max_qubits: int | None) -> int:
    """Set (or with ``None`` reset) a method's active-qubit budget.

    Returns the budget now in force.  The budget guards against
    accidentally materialising a state that cannot fit in memory —
    raise it deliberately on machines that can afford more (or derive
    machine-sized caps with :func:`autodetect_method_budgets`).
    """
    descriptor = method_descriptor(method)
    if max_qubits is None:
        _budget_overrides.pop(method, None)
        return descriptor.default_qubit_budget
    if int(max_qubits) < 1:
        raise BackendError("qubit budget must be >= 1")
    _budget_overrides[method] = int(max_qubits)
    return _budget_overrides[method]


def adopt_method_budgets(budgets: Mapping[str, int]) -> None:
    """Adopt a budget snapshot from another process.

    Unknown method names are skipped silently: a plugin registered only
    in the parent process does not exist in a pool worker, and its
    budget cannot matter there.
    """
    _ensure_builtins()
    for method, budget in budgets.items():
        if method in _REGISTRY:
            set_method_qubit_budget(method, budget)


def check_qubit_budget(
    method: str,
    num_active: int,
    plan=None,
    noise_model=None,
) -> None:
    """Raise when ``num_active`` exceeds the method's current budget.

    The error names the method, its escape hatch, and — dynamically,
    from the registry — every other registered method whose budget
    admits the circuit, plus the RAM-based budget autodetection hook.
    When the caller passes the execution ``plan`` (and noise model),
    only methods whose capability predicate actually accepts the
    circuit are advertised — never a method that would just fail with
    its own error.
    """
    descriptor = method_descriptor(method)
    budget = method_qubit_budget(method)
    if num_active <= budget:
        return

    def admissible(candidate: MethodDescriptor) -> bool:
        if method_qubit_budget(candidate.name) < num_active:
            return False
        if plan is None:
            return True
        try:
            return bool(candidate.supports(plan, noise_model))
        except Exception:
            return False

    alternatives = ", ".join(
        f"{name} (<= {method_qubit_budget(name)} qubits)"
        for name, candidate in _REGISTRY.items()
        if name != method and admissible(candidate)
    )
    hatch = descriptor.escape_hatch
    message = (
        f"{num_active} active qubits exceed the {budget}-qubit "
        f"{method} simulator budget"
    )
    if hatch:
        message += f"; {hatch}"
    if alternatives:
        message += f"; registered methods within budget: {alternatives}"
    message += (
        "; raise the cap with set_method_qubit_budget, or derive "
        "RAM-based caps with autodetect_method_budgets()"
    )
    raise BackendError(message)


# ---------------------------------------------------------------------------
# auto dispatch ranking
# ---------------------------------------------------------------------------

def rank_methods(plan, noise_model) -> list[MethodDescriptor]:
    """Candidate back-ends for ``auto``, best first.

    The ranking rule (documented in PERFORMANCE.md):

    1. only methods whose ``supports`` predicate accepts the
       ``(plan, noise_model)`` pair are candidates;
    2. candidates within their qubit budget outrank ones that are not;
    3. exact candidates outrank ``statistical`` ones;
    4. within a tier, lower ``cost(plan, noise_model)`` wins, with
       registration order breaking ties.

    Rule 2 keeps a circuit nobody can afford resolving to the
    *cheapest* supporting method, so the budget error the execution
    raises names the method the caller would most plausibly raise the
    cap on.
    """
    _ensure_builtins()
    candidates = [
        (order, descriptor)
        for order, descriptor in enumerate(_REGISTRY.values())
        if descriptor.supports(plan, noise_model)
    ]
    if not candidates:
        raise BackendError(
            "no registered simulation method supports this circuit/"
            f"noise combination; registered methods: {method_names()}"
        )
    num_active = getattr(plan, "num_local", 0)

    def rank_key(entry):
        order, descriptor = entry
        over_budget = num_active > method_qubit_budget(descriptor.name)
        # the exactness tier only matters between runnable methods: in
        # the nothing-fits fallback the cheapest method is the one the
        # caller would most plausibly raise the cap on, exact or not
        return (
            over_budget,
            descriptor.statistical and not over_budget,
            float(descriptor.cost(plan, noise_model)),
            order,
        )

    candidates.sort(key=rank_key)
    return [descriptor for _, descriptor in candidates]


# ---------------------------------------------------------------------------
# RAM-derived budgets
# ---------------------------------------------------------------------------

#: fraction of available memory one simulator state may claim; the
#: engine needs headroom for kernels' scratch arrays and the rest of
#: the process
DEFAULT_MEMORY_FRACTION = 0.5

#: hard ceiling on RAM-derived budgets: a sub-exponential (or constant)
#: ``state_bytes`` model would otherwise let the derivation loop walk
#: to absurd qubit counts — or never terminate
MAX_AUTODETECT_QUBITS = 1024


def available_memory_bytes() -> int | None:
    """``MemAvailable`` from ``/proc/meminfo``, or ``None`` off-Linux."""
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def autodetect_method_budgets(
    memory_bytes: int | None = None,
    fraction: float = DEFAULT_MEMORY_FRACTION,
    apply: bool = False,
) -> dict[str, int]:
    """Per-method qubit budgets derived from available RAM.

    For every registered method with a ``state_bytes`` memory model,
    the detected budget is the largest qubit count whose state fits in
    ``fraction`` of ``memory_bytes`` (``MemAvailable`` from
    ``/proc/meminfo`` by default).  The budget currently in force is a
    **floor**: autodetection only ever raises a budget — it never
    undoes a manual :func:`set_method_qubit_budget` override — and
    methods without a memory model (or a machine without
    ``/proc/meminfo``) keep their current budgets, so seeded ``auto``
    dispatch stays reproducible unless a caller opts in.

    Returns the derived budgets; with ``apply=True`` they are also
    installed via :func:`set_method_qubit_budget`.
    """
    _ensure_builtins()
    if not 0 < fraction <= 1:
        raise BackendError("fraction must be in (0, 1]")
    if memory_bytes is None:
        memory_bytes = available_memory_bytes()
    budgets: dict[str, int] = {}
    for name, descriptor in _REGISTRY.items():
        budget = method_qubit_budget(name)
        if descriptor.state_bytes is not None and memory_bytes:
            allowance = memory_bytes * fraction
            derived = budget
            while (
                derived < MAX_AUTODETECT_QUBITS
                and descriptor.state_bytes(derived + 1) <= allowance
            ):
                derived += 1
            budget = max(budget, derived)
        budgets[name] = budget
    if apply:
        adopt_method_budgets(budgets)
    return budgets
