"""Unit tests for the optimization-tier passes and the cancellation
bugfixes (per-gate zero-rotation periods, symmetric-operand
canonicalization, measure-safe routing)."""

import math

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, standard_gate
from repro.simulators import circuit_to_unitary
from repro.transpiler import (
    CommutationReorder,
    CommutativeCancellation,
    CouplingMap,
    PhaseGadgetFusion,
    SelfInverseCancellation,
    SingleQubitResynthesis,
    TranspileContext,
    gates_commute,
)
from repro.transpiler.passes.rules import (
    ROTATION_PERIODS,
    SYMMETRIC_GATES,
    canonical_qubits,
    zero_rotation_phase,
)
from repro.transpiler.passes.routing import SabreSwap

TWO_PI = 2.0 * math.pi


def _exact_equal(circuit_a, circuit_b):
    """Unitary equality *including* global phase."""
    return np.allclose(
        circuit_to_unitary(circuit_a), circuit_to_unitary(circuit_b),
        atol=1e-9,
    )


class TestZeroRotationPeriods:
    """Regression: the old pass dropped any angle = 0 (mod 2pi)."""

    def test_crz_two_pi_is_not_identity(self):
        # crz(2pi) = Z (x) I — removing it corrupts the circuit
        qc = QuantumCircuit(2)
        qc.h(0)  # make the control-qubit phase observable
        qc.crz(TWO_PI, 0, 1)
        out = CommutativeCancellation()(qc)
        assert any(
            inst.operation.name == "crz" for inst in out.instructions
        ), "crz(2pi) was dropped"
        assert _exact_equal(qc, out)

    def test_crz_four_pi_dropped(self):
        qc = QuantumCircuit(2)
        qc.crz(2 * TWO_PI, 0, 1)
        out = CommutativeCancellation()(qc)
        assert out.size() == 0
        assert _exact_equal(qc, out)

    @pytest.mark.parametrize("name", ["rz", "rx", "ry"])
    def test_two_pi_rotation_dropped_with_global_phase(self, name):
        # r*(2pi) = -I: removable, but only with a tracked pi phase
        qc = QuantumCircuit(1)
        getattr(qc, name)(TWO_PI, 0)
        out = CommutativeCancellation()(qc)
        assert out.size() == 0
        assert out.global_phase == pytest.approx(math.pi)
        assert _exact_equal(qc, out)

    @pytest.mark.parametrize("name", ["rzz", "rxx", "ryy"])
    def test_two_qubit_two_pi_rotation_dropped_exactly(self, name):
        qc = QuantumCircuit(2)
        getattr(qc, name)(TWO_PI, 0, 1)
        out = CommutativeCancellation()(qc)
        assert out.size() == 0
        assert _exact_equal(qc, out)

    @pytest.mark.parametrize("name", ["p", "cp"])
    def test_phase_gates_are_two_pi_periodic(self, name):
        qc = QuantumCircuit(2)
        getattr(qc, name)(TWO_PI, 0, 1) if name == "cp" else getattr(
            qc, name
        )(TWO_PI, 0)
        out = CommutativeCancellation()(qc)
        assert out.size() == 0
        assert _exact_equal(qc, out)

    @pytest.mark.parametrize("name", sorted(ROTATION_PERIODS))
    def test_zero_rotation_phase_matches_matrices(self, name):
        """The rule table must agree with the actual gate matrices."""
        num_qubits = 1 if name in ("rz", "rx", "ry", "p") else 2
        dim = 1 << num_qubits
        for k in range(1, 5):
            angle = k * TWO_PI / 2  # pi, 2pi, 3pi, 4pi
            phase = zero_rotation_phase(name, angle)
            matrix = standard_gate(name, [angle]).matrix()
            if phase is None:
                assert not np.allclose(
                    matrix / matrix[0, 0], np.eye(dim), atol=1e-9
                ) or abs(abs(matrix[0, 0]) - 1) > 1e-9
            else:
                assert np.allclose(
                    matrix, np.exp(1j * phase) * np.eye(dim), atol=1e-9
                ), f"{name}({angle}) is not e^(i {phase}) I"


class TestSymmetricOperandCanonicalization:
    """Regression: exact tuple equality blocked cz(1,0) vs cz(0,1)."""

    @pytest.mark.parametrize("name", ["cz", "swap"])
    def test_self_inverse_cancels_across_operand_order(self, name):
        qc = QuantumCircuit(2)
        getattr(qc, name)(0, 1)
        getattr(qc, name)(1, 0)
        out = SelfInverseCancellation()(qc)
        assert out.size() == 0
        assert _exact_equal(qc, out)

    @pytest.mark.parametrize("name", ["rzz", "rxx", "ryy"])
    def test_rotations_merge_across_operand_order(self, name):
        qc = QuantumCircuit(2)
        getattr(qc, name)(0.3, 0, 1)
        getattr(qc, name)(0.4, 1, 0)
        out = CommutativeCancellation()(qc)
        assert out.size() == 1
        assert out.instructions[0].operation.params[0] == pytest.approx(0.7)
        assert _exact_equal(qc, out)

    def test_cp_merges_across_operand_order(self):
        qc = QuantumCircuit(2)
        qc.cp(0.3, 0, 1)
        qc.cp(0.4, 1, 0)
        out = CommutativeCancellation()(qc)
        assert out.size() == 1
        assert _exact_equal(qc, out)

    def test_cx_reversed_still_not_cancelled(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        qc.cx(1, 0)
        out = SelfInverseCancellation()(qc)
        assert out.size() == 2

    def test_crz_not_symmetric(self):
        qc = QuantumCircuit(2)
        qc.crz(0.3, 0, 1)
        qc.crz(-0.3, 1, 0)
        out = CommutativeCancellation()(qc)
        assert out.size() == 2
        assert _exact_equal(qc, out)

    @pytest.mark.parametrize("name", sorted(SYMMETRIC_GATES))
    def test_symmetric_table_matches_matrices(self, name):
        params = [] if name in ("cz", "swap") else [0.37]
        gate = standard_gate(name, params)
        forward = QuantumCircuit(2)
        forward.append(gate, [0, 1])
        reverse = QuantumCircuit(2)
        reverse.append(gate, [1, 0])
        assert _exact_equal(forward, reverse)
        assert canonical_qubits(name, (1, 0)) == (0, 1)


class TestCommutationReorder:
    def test_rz_through_cx_control_cancels(self):
        qc = QuantumCircuit(2)
        qc.rz(0.5, 0)
        qc.cx(0, 1)
        qc.rz(-0.5, 0)
        out = CommutativeCancellation()(qc)
        assert out.count_ops() == {"cx": 1}
        assert _exact_equal(qc, out)

    def test_x_through_cx_target_cancels(self):
        qc = QuantumCircuit(2)
        qc.x(1)
        qc.cx(0, 1)
        qc.x(1)
        out = CommutativeCancellation()(qc)
        assert out.count_ops() == {"cx": 1}
        assert _exact_equal(qc, out)

    def test_rzz_through_cx_controls(self):
        qc = QuantumCircuit(3)
        qc.rzz(0.4, 0, 1)
        qc.cx(0, 2)
        qc.cx(1, 2)
        qc.rzz(-0.4, 1, 0)
        out = CommutativeCancellation()(qc)
        assert out.count_ops() == {"cx": 2}
        assert _exact_equal(qc, out)

    def test_oracle_agrees_with_matrices(self):
        # every True the rule set returns must hold as matrices
        from repro.circuits.circuit import CircuitInstruction
        from repro.utils.linalg import embed_matrix

        pool = [
            ("rz", [0.3], (0,)), ("x", [], (1,)), ("t", [], (2,)),
            ("sx", [], (1,)), ("cx", [], (0, 1)), ("cx", [], (1, 2)),
            ("cx", [], (2, 0)), ("cz", [], (0, 2)), ("rzz", [0.5], (1, 2)),
            ("rxx", [0.7], (0, 1)), ("crz", [0.2], (2, 1)),
        ]
        for name_a, params_a, qubits_a in pool:
            for name_b, params_b, qubits_b in pool:
                inst_a = CircuitInstruction(
                    standard_gate(name_a, params_a), qubits_a
                )
                inst_b = CircuitInstruction(
                    standard_gate(name_b, params_b), qubits_b
                )
                if not gates_commute(inst_a, inst_b):
                    continue
                full_a = embed_matrix(
                    inst_a.operation.matrix(), qubits_a, 3
                )
                full_b = embed_matrix(
                    inst_b.operation.matrix(), qubits_b, 3
                )
                assert np.allclose(
                    full_a @ full_b, full_b @ full_a, atol=1e-9
                ), f"{name_a}{qubits_a} vs {name_b}{qubits_b}"

    def test_reorder_alone_preserves_unitary(self):
        qc = QuantumCircuit(3)
        qc.rz(0.2, 0)
        qc.cx(0, 1)
        qc.t(0)
        qc.cx(1, 2)
        qc.rz(-0.2, 0)
        out = CommutationReorder()(qc)
        assert _exact_equal(qc, out)


class TestPhaseGadgetFusion:
    def test_fuses_across_diagonal_block(self):
        qc = QuantumCircuit(3)
        qc.rzz(0.1, 0, 1)
        qc.cz(1, 2)
        qc.t(0)
        qc.rzz(0.2, 1, 0)
        out = PhaseGadgetFusion()(qc)
        assert out.count_ops()["rzz"] == 1
        assert _exact_equal(qc, out)

    def test_blocked_by_non_diagonal_gate(self):
        qc = QuantumCircuit(2)
        qc.rz(0.1, 0)
        qc.h(0)
        qc.rz(0.2, 0)
        out = PhaseGadgetFusion()(qc)
        assert out.count_ops()["rz"] == 2
        assert _exact_equal(qc, out)

    def test_distant_qubit_gate_does_not_block(self):
        qc = QuantumCircuit(3)
        qc.rz(0.1, 0)
        qc.sx(2)  # non-diagonal, but on an unrelated qubit
        qc.rz(0.2, 0)
        out = PhaseGadgetFusion()(qc)
        assert out.count_ops()["rz"] == 1
        assert _exact_equal(qc, out)

    def test_fused_zero_is_dropped(self):
        qc = QuantumCircuit(2)
        qc.rzz(0.4, 0, 1)
        qc.cz(0, 1)
        qc.rzz(-0.4, 1, 0)
        out = PhaseGadgetFusion()(qc)
        assert out.count_ops() == {"cz": 1}
        assert _exact_equal(qc, out)


class TestSingleQubitResynthesis:
    def test_collapses_long_run(self):
        qc = QuantumCircuit(1)
        for angle in (0.3, 0.25, -0.1):
            qc.rz(angle, 0)
            qc.sx(0)
            qc.rz(-angle / 2, 0)
        out = SingleQubitResynthesis()(qc)
        assert out.size() < qc.size()
        assert _exact_equal(qc, out)

    def test_diagonal_run_becomes_single_rz(self):
        qc = QuantumCircuit(1)
        qc.t(0)
        qc.rz(0.3, 0)
        qc.s(0)
        out = SingleQubitResynthesis()(qc)
        assert out.count_ops() == {"rz": 1}
        assert _exact_equal(qc, out)

    def test_identity_run_vanishes(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.h(0)
        qc.s(0)
        qc.sdg(0)
        out = SingleQubitResynthesis()(qc)
        assert out.size() == 0
        assert _exact_equal(qc, out)

    def test_minimal_run_kept_verbatim(self):
        qc = QuantumCircuit(1)
        qc.sx(0)
        out = SingleQubitResynthesis()(qc)
        assert [i.operation.name for i in out.instructions] == ["sx"]

    def test_runs_bounded_by_two_qubit_gates(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        qc.h(0)
        qc.cx(0, 1)
        qc.h(0)
        out = SingleQubitResynthesis()(qc)
        assert _exact_equal(qc, out)
        names = [i.operation.name for i in out.instructions]
        assert names == ["cx", "h"]

    def test_inactive_without_native_basis(self):
        qc = QuantumCircuit(1)
        qc.h(0)
        qc.h(0)
        out = SingleQubitResynthesis(basis={"u3", "cx"})(qc)
        assert out.size() == 2  # pass is the identity off-basis


class TestRoutingMeasureSafety:
    """Regression: mid-routing measure emission could double-measure a
    physical wire once a later SWAP moved another wire onto it."""

    def test_syndrome_style_circuit_measures_unique_wires(self):
        qc = QuantumCircuit(5, 2)
        qc.h(0)
        qc.cx(0, 1)
        qc.cx(0, 3)
        qc.cx(1, 3)
        qc.cx(1, 4)
        qc.cx(2, 4)
        qc.cx(0, 2)
        qc.measure(3, 0)
        qc.measure(4, 1)
        for seed in range(6):
            ctx = TranspileContext()
            routed = SabreSwap(CouplingMap.from_line(5), seed=seed)(qc, ctx)
            measured = [
                inst.qubits[0]
                for inst in routed.instructions
                if inst.operation.name == "measure"
            ]
            assert len(measured) == len(set(measured))
            # measures use the final layout
            assert sorted(measured) == sorted(
                ctx.final_layout[w] for w in (3, 4)
            )
