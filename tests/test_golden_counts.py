"""Golden-counts regression fixtures, one per simulation method.

``tests/fixtures/golden_counts.json`` pins the exact seeded counts each
back-end produced when the fixture was generated.  Refactors of the
engine, the kernels or the RNG derivation **cannot** silently shift
seeded outputs: any change to these counts fails here and forces an
explicit, reviewed fixture update.

Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden_counts.py --regenerate
"""

import json
from pathlib import Path

import pytest

from repro.backends import FakeGuadalupe, execute_circuit
from repro.circuits import QuantumCircuit

FIXTURE = Path(__file__).parent / "fixtures" / "golden_counts.json"

SHOTS = 512
SEED = 11


def golden_circuit(num_qubits: int = 4) -> QuantumCircuit:
    qc = QuantumCircuit(num_qubits, num_qubits)
    qc.h(0)
    for i in range(num_qubits - 1):
        qc.cx(i, i + 1)
    qc.rz(0.37, 1)
    qc.sx(2)
    for i in range(num_qubits):
        qc.measure(i, i)
    return qc


def run_case(backend, case: str):
    """Execute one named golden case; returns the ExperimentResult."""
    circuit = golden_circuit()
    if case == "statevector_noiseless":
        return execute_circuit(
            circuit, backend.target, None, shots=SHOTS, seed=SEED,
            method="statevector",
        )
    if case == "density_matrix_noisy":
        return execute_circuit(
            circuit, backend.target, backend.noise_model,
            shots=SHOTS, seed=SEED, method="density_matrix",
        )
    raise ValueError(case)


CASES = [
    "statevector_noiseless",
    "density_matrix_noisy",
]


@pytest.fixture(scope="module")
def backend():
    return FakeGuadalupe()


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_counts_match_golden_fixture(backend, golden, case):
    result = run_case(backend, case)
    entry = golden[case]
    assert dict(result.counts) == entry["counts"], (
        f"seeded counts for {case!r} shifted; if the change is "
        f"intended, regenerate tests/fixtures/golden_counts.json"
    )
    assert result.metadata["method"] == entry["method"]


def regenerate() -> None:
    backend = FakeGuadalupe()
    payload = {}
    for case in CASES:
        result = run_case(backend, case)
        entry = {
            "counts": dict(result.counts),
            "method": result.metadata["method"],
        }
        payload[case] = entry
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
