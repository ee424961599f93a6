"""Gate-level simulators.

Amplitude simulators (statevector, unitary, density matrix), the Monte
Carlo trajectory sampler and the CHP-style stabilizer tableau.  The
execution engine's method table (:mod:`repro.backends.engine`) picks
one of them per circuit.
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
from repro.simulators.stabilizer import (
    StabilizerProgram,
    StabilizerTableau,
    clifford_conjugation_table,
    is_clifford_matrix,
    measurement_marginal,
    pauli_channel_terms,
    run_stabilizer_program,
)
from repro.simulators.trajectory import (
    TrajectoryProgram,
    apply_matrix_to_stack,
    run_trajectories,
    run_trajectories_adaptive,
    split_shots,
)

__all__ = [
    "Statevector",
    "simulate_statevector",
    "circuit_to_unitary",
    "DensityMatrix",
    "StabilizerProgram",
    "StabilizerTableau",
    "clifford_conjugation_table",
    "is_clifford_matrix",
    "measurement_marginal",
    "pauli_channel_terms",
    "run_stabilizer_program",
    "TrajectoryProgram",
    "apply_matrix_to_stack",
    "run_trajectories",
    "run_trajectories_adaptive",
    "split_shots",
    "counts_to_probabilities",
    "probabilities_to_counts",
    "sample_counts",
    "total_variation",
]
