"""Simulated quantum backends with calibration-driven noise."""

from repro.backends.target import QubitProperties, Target
from repro.backends.result import Counts, Result
from repro.backends.engine import (
    autodetect_method_budgets,
    execute_circuit,
    execute_circuits,
    method_names,
    method_qubit_budget,
    method_qubit_budgets,
    resolve_trajectory_request,
    select_method,
    set_method_qubit_budget,
)
from repro.backends.backend import SimulatedBackend
from repro.backends.fake import (
    FakeAuckland,
    FakeGuadalupe,
    FakeMontreal,
    FakeToronto,
    fake_backend_by_name,
)


def __getattr__(name: str):
    if name == "METHODS":
        # live view of the registry: plugins registered at runtime show
        # up here too, which a from-import at module load would freeze
        from repro.backends import engine

        return engine.METHODS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "QubitProperties",
    "Target",
    "Counts",
    "Result",
    "METHODS",
    "autodetect_method_budgets",
    "execute_circuit",
    "execute_circuits",
    "method_names",
    "method_qubit_budget",
    "method_qubit_budgets",
    "resolve_trajectory_request",
    "select_method",
    "set_method_qubit_budget",
    "SimulatedBackend",
    "FakeAuckland",
    "FakeGuadalupe",
    "FakeMontreal",
    "FakeToronto",
    "fake_backend_by_name",
]
