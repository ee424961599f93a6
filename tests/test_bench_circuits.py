"""Correctness tests for the standard benchmark circuit suite.

The generators live in ``benchmarks/circuits`` (outside the package),
so the benchmarks directory is added to the path the same way the
bench scripts do it.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from circuits import (  # noqa: E402
    SUITE,
    adder,
    fredkin,
    ghz,
    grover,
    qft,
    toffoli,
    trotter_echo,
    wstate,
)

from repro.backends import Target  # noqa: E402
from repro.backends.engine import (  # noqa: E402
    _CircuitPlan,
    _evolve_exact,
    execute_circuit,
)
from repro.circuits import QuantumCircuit  # noqa: E402
from repro.exceptions import BackendError  # noqa: E402
from repro.simulators import (  # noqa: E402
    circuit_to_unitary,
    simulate_statevector,
)
from repro.transpiler import CouplingMap, transpile  # noqa: E402

#: gates that map Paulis to Paulis whatever their operands
CLIFFORD_GATES = {
    "h", "s", "sdg", "x", "y", "z", "sx", "sxdg", "cx", "cz", "swap",
}


def _is_clifford(circuit) -> bool:
    """Every gate is a Clifford by name, or an ``rz`` whose angle is a
    multiple of pi/2; measures and barriers are Clifford-compatible."""
    for inst in circuit.instructions:
        op = inst.operation
        if op.name in ("measure", "barrier"):
            continue
        if op.name == "rz":
            quarter_turns = float(op.params[0]) / (math.pi / 2)
            if not math.isclose(
                quarter_turns, round(quarter_turns), abs_tol=1e-9
            ):
                return False
        elif op.name not in CLIFFORD_GATES:
            return False
    return True


def _counts(circuit, shots=200, seed=11):
    width = max(circuit.num_qubits, 2)
    target = Target(width, CouplingMap.full(width))
    return dict(
        execute_circuit(
            circuit, target, shots=shots, seed=seed,
            with_readout_error=False,
        ).counts
    )


class TestStates:
    def test_ghz_counts_are_two_peaked(self):
        counts = _counts(ghz(8), shots=400)
        assert set(counts) == {"0" * 8, "1" * 8}
        assert sum(counts.values()) == 400

    def test_wstate_amplitudes_uniform_one_hot(self):
        state = simulate_statevector(wstate(4, measure=False))
        probs = state.probabilities()
        one_hot = [1 << k for k in range(4)]
        for idx, p in enumerate(probs):
            expected = 0.25 if idx in one_hot else 0.0
            assert p == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_wstate_any_width(self, n):
        probs = simulate_statevector(wstate(n, measure=False)).probabilities()
        for k in range(n):
            assert probs[1 << k] == pytest.approx(1.0 / n, abs=1e-12)


class TestArithmetic:
    def test_toffoli_truth(self):
        assert _counts(toffoli(), shots=100) == {"111": 100}

    def test_fredkin_truth(self):
        assert _counts(fredkin(), shots=100) == {"101": 100}

    def test_toffoli_decomposition_matches_ccx_unitary(self):
        from circuits.arithmetic import append_ccx

        qc = QuantumCircuit(3)
        append_ccx(qc, 0, 1, 2)
        ccx = np.eye(8)
        ccx[[3, 7], [3, 7]] = 0
        ccx[3, 7] = ccx[7, 3] = 1
        u = circuit_to_unitary(qc)
        assert np.allclose(u / u[0, 0], ccx, atol=1e-9)

    @pytest.mark.parametrize(
        "a,b", [(0, 0), (1, 2), (3, 2), (3, 3), (2, 3)]
    )
    def test_cuccaro_adder_sums(self, a, b):
        counts = _counts(adder(num_bits=2, a_value=a, b_value=b), shots=50)
        assert len(counts) == 1
        bits = next(iter(counts))  # clbit 0 is the rightmost character
        total = a + b
        carry_out = int(bits[0])
        b_out = int(bits[-3]) | (int(bits[-5]) << 1)
        assert (carry_out << 2) | b_out == total


class TestAlgorithms:
    def test_qft_matrix_is_dft(self):
        n = 3
        u = circuit_to_unitary(qft(n))
        dim = 1 << n
        omega = np.exp(2j * math.pi / dim)
        dft = np.array(
            [[omega ** (i * j) for j in range(dim)] for i in range(dim)]
        ) / math.sqrt(dim)
        assert np.allclose(u, dft, atol=1e-9)

    @pytest.mark.parametrize("marked", [0, 3, 5, 7])
    def test_grover_amplifies_marked_state_n3(self, marked):
        counts = _counts(grover(3, marked=marked), shots=1000, seed=2)
        label = format(marked, "03b")  # big-endian count keys
        assert counts.get(label, 0) > 900

    def test_grover_n2_is_deterministic(self):
        counts = _counts(grover(2, marked=2), shots=100)
        assert set(counts) == {format(2, "02b")}


class TestTrotterEcho:
    def test_echo_returns_to_ghz(self):
        counts = _counts(trotter_echo(6, steps=2), shots=300)
        assert set(counts) == {"0" * 6, "1" * 6}

    def test_echo_collapses_to_clifford_under_optimization(self):
        qc = trotter_echo(6, steps=2)
        out = transpile(
            qc, CouplingMap.from_line(6), optimization_level=2, seed=7
        )
        assert not _is_clifford(qc)
        names = sorted({i.operation.name for i in out.instructions})
        assert _is_clifford(out), f"echo did not collapse: {names}"
        assert out.size() < qc.size() // 2


class TestSuiteRegistry:
    def test_registry_shape(self):
        assert len(SUITE) >= 8
        for name, factory in SUITE.items():
            circuit = factory()
            assert circuit.num_qubits >= 2, name
            assert circuit.size() > 0, name
            # factories return fresh objects — no shared mutable state
            assert factory() is not circuit, name

    def test_names_encode_width(self):
        for name, factory in SUITE.items():
            width = int(name.rsplit("_", 1)[1][1:])
            circuit = factory()
            expected = (
                circuit.num_qubits
                if not name.startswith("qec")
                else None
            )
            if expected is not None:
                assert width == expected, name

    def test_every_suite_circuit_is_measured(self):
        for name, factory in SUITE.items():
            circuit = factory()
            assert circuit.num_clbits > 0, name
            assert any(
                inst.operation.name == "measure"
                for inst in circuit.instructions
            ), name

    def test_qec_circuit_is_fully_clifford(self):
        assert _is_clifford(SUITE["qec_d5"]())


@pytest.mark.parametrize("name", sorted(SUITE))
def test_suite_circuit_on_both_exact_methods(name):
    """``auto`` runs every noiseless suite circuit on ``statevector``.
    Up to 8 qubits the density matrix evolves it to the same outcome
    distribution (to float rounding: a few 1e-15 can flip one seeded
    multinomial draw, so counts are not compared) in the same duration;
    past its 14-qubit budget, pinning it raises the budget error naming
    ``statevector``.  (The 13-qubit ``qec_d5`` fits the budget but takes
    tens of seconds as a density matrix, so it is compared nowhere.)"""
    circuit = SUITE[name]()
    width = max(circuit.num_qubits, 2)
    target = Target(width, CouplingMap.full(width))
    auto = execute_circuit(
        circuit, target, shots=200, seed=11, with_readout_error=False
    )
    assert auto.metadata["method"] == "statevector"
    assert sum(auto.counts.values()) == 200
    if circuit.num_qubits <= 8:
        plan = _CircuitPlan(circuit, target)
        (sv, sv_duration), (dm, dm_duration) = (
            _evolve_exact(
                plan, circuit, method, None, np.random.default_rng(0),
                None, target,
            )
            for method in ("statevector", "density_matrix")
        )
        np.testing.assert_allclose(
            dm.probabilities(), sv.probabilities(), rtol=0, atol=1e-12
        )
        assert dm_duration == sv_duration
    elif circuit.num_qubits > 14:
        with pytest.raises(
            BackendError,
            match="methods within budget: statevector",
        ):
            execute_circuit(
                circuit, target, shots=200, seed=11,
                method="density_matrix",
            )
