"""Error suppression: M3 readout mitigation and CVaR."""

from repro.mitigation.m3 import M3Mitigator, QuasiDistribution
from repro.mitigation.cvar import cvar_expectation

__all__ = [
    "M3Mitigator",
    "QuasiDistribution",
    "cvar_expectation",
]
