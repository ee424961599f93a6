"""Simulated quantum backends with calibration-driven noise."""

from repro.backends.target import QubitProperties, Target
from repro.backends.result import Counts, Result
from repro.backends.engine import (
    METHODS,
    execute_circuit,
    execute_circuits,
    select_method,
)
from repro.backends.backend import SimulatedBackend
from repro.backends.fake import (
    FakeAuckland,
    FakeGuadalupe,
    FakeMontreal,
    FakeToronto,
    fake_backend_by_name,
)

__all__ = [
    "QubitProperties",
    "Target",
    "Counts",
    "Result",
    "METHODS",
    "execute_circuit",
    "execute_circuits",
    "select_method",
    "SimulatedBackend",
    "FakeAuckland",
    "FakeGuadalupe",
    "FakeMontreal",
    "FakeToronto",
    "fake_backend_by_name",
]
