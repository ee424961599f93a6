"""Shared experiment configuration and the paper's reference numbers."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.backends import fake_backend_by_name


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiment drivers.

    ``quick`` trades statistical quality for speed (fewer optimizer
    iterations and shots) so the benchmark suite can exercise every
    driver in seconds.  ``python -m repro.experiments <name>`` at the
    default (paper-faithful) settings — COBYLA maxiter 50 (200 for the
    pulse-level model), 1024 shots, CVaR alpha 0.3, fixed qubit mapping —
    is what compares against the paper's numbers (``TABLE2_PAPER`` and
    its siblings below).
    """

    shots: int = 1024
    maxiter: int = 50
    pulse_maxiter: int = 200
    cvar_alpha: float = 0.3
    seed: int = 2023
    quick: bool = False
    #: worker processes for multi-circuit batches (``--jobs``), today
    #: the PO search's; single evaluations run inline, and results are
    #: seed-identical for any value (:mod:`repro.service`)
    jobs: int = 1
    #: simulation method for every circuit execution (``--method``):
    #: one of ``repro.backends.METHODS``, where "auto" picks one per
    #: circuit (PERFORMANCE.md)
    method: str = "auto"

    def __post_init__(self) -> None:
        if self.quick:
            self.shots = min(self.shots, 256)
            self.maxiter = min(self.maxiter, 8)
            self.pulse_maxiter = min(self.pulse_maxiter, 12)

    def backend(self, name: str):
        return fake_backend_by_name(name)


#: paper Table II, in percent
TABLE2_PAPER: dict[str, dict[str, dict[str, float]]] = {
    "auckland": {
        "gate": {"raw": 49.1, "go": 53.3, "m3": 50.8, "cvar": 63.8},
        "hybrid": {"raw": 54.2, "go": 55.7, "m3": 55.5, "cvar": 73.5},
    },
    "toronto": {
        "gate": {"raw": 48.8, "go": 49.9, "m3": 51.3, "cvar": 72.3},
        "hybrid": {"raw": 54.1, "go": 57.3, "m3": 60.1, "cvar": 84.3},
    },
    "guadalupe": {
        "gate": {"raw": 50.5, "go": 52.4, "m3": 53.8, "cvar": 75.0},
        "hybrid": {"raw": 54.5, "go": 55.9, "m3": 56.8, "cvar": 76.1},
    },
}

#: paper Table II duration rows (samples)
TABLE2_PAPER_DURATIONS = {"raw_mixer": 320, "po_mixer": 128}

#: paper Fig. 5 (ibmq_toronto, task 1), in percent / samples
FIG5_PAPER = {
    "pulse_ar": 52.2,
    "hybrid_ar": 54.3,
    "hybrid_po_ar": 54.1,
    "pulse_duration": 320,
    "hybrid_duration": 320,
    "hybrid_po_duration": 128,
    "pulse_convergence_factor": 4.0,
}

#: paper Fig. 6: optimized gate vs optimized hybrid AR, percent
FIG6_PAPER = {
    ("toronto", 1): {"gate": 51.3, "hybrid": 60.1},
    ("toronto", 2): {"gate": 74.0, "hybrid": 78.3},
    ("toronto", 3): {"gate": 59.7, "hybrid": 62.9},
    ("montreal", 1): {"gate": 51.4, "hybrid": 57.1},
    ("montreal", 2): {"gate": 75.9, "hybrid": 80.0},
    ("montreal", 3): {"gate": 62.9, "hybrid": 65.8},
}

#: paper Table I, verbatim
TABLE1_PAPER = {
    "auckland": {
        "num_qubits": 27,
        "pauli_x_error": 2.229e-4,
        "cnot_error": 1.164e-2,
        "readout_error": 0.011,
        "t1_us": 166.220,
        "t2_us": 145.620,
        "readout_length_ns": 757.333,
    },
    "toronto": {
        "num_qubits": 27,
        "pauli_x_error": 2.774e-4,
        "cnot_error": 9.677e-3,
        "readout_error": 0.031,
        "t1_us": 104.200,
        "t2_us": 120.760,
        "readout_length_ns": 5962.667,
    },
    "guadalupe": {
        "num_qubits": 16,
        "pauli_x_error": 3.023e-4,
        "cnot_error": 1.108e-2,
        "readout_error": 0.025,
        "t1_us": 102.320,
        "t2_us": 102.530,
        "readout_length_ns": 7111.111,
    },
    "montreal": {
        "num_qubits": 27,
        "pauli_x_error": 2.780e-4,
        "cnot_error": 1.049e-2,
        "readout_error": 0.015,
        "t1_us": 123.99,
        "t2_us": 95.01,
        "readout_length_ns": 5201.778,
    },
}

#: paper Fig. 4 Max-Cut optima
FIG4_PAPER = {1: 9, 2: 8, 3: 10}
