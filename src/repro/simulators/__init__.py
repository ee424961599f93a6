"""Gate-level simulators.

Amplitude simulators (statevector, unitary, density matrix) and shot
sampling.  The execution engine's method table
(:mod:`repro.backends.engine`) runs each circuit on the density matrix
or the statevector.
"""

from repro.simulators.statevector import Statevector, simulate_statevector
from repro.simulators.unitary import circuit_to_unitary
from repro.simulators.density_matrix import DensityMatrix
from repro.simulators.sampler import (
    counts_to_probabilities,
    probabilities_to_counts,
    sample_counts,
    total_variation,
)

__all__ = [
    "Statevector",
    "simulate_statevector",
    "circuit_to_unitary",
    "DensityMatrix",
    "counts_to_probabilities",
    "probabilities_to_counts",
    "sample_counts",
    "total_variation",
]
