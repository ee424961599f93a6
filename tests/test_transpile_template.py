"""Transpile templates equal a fresh transpile bit for bit, or stand aside.

``ExecutionPipeline.prepare`` binds each evaluation's angles into a
template traced once per circuit structure; ``_transpile`` is the
transpile it replaces.  Every check here compares the two on names,
qubits, clbits, ``float.hex`` of every parameter, the global phase's
``repr``, metadata, calibrations, and the identity of the operations a
pass emits unchanged.
"""

from __future__ import annotations

import copy
import math
import operator
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.fake import FakeGuadalupe, FakeToronto
from repro.circuits.circuit import QuantumCircuit
from repro.core.models import (
    GateLevelModel,
    HybridGatePulseModel,
    PulseLevelModel,
)
from repro.core.training import ExecutionPipeline
from repro.exceptions import ParameterError
from repro.problems import MaxCutProblem, benchmark_graph
from repro.telemetry import metrics_snapshot
from repro.transpiler.template import Slot, Tape, structure_of
from repro.utils.cache import caching_disabled
from repro.vqa.cost import ExpectedCutCost


def _hex(value) -> str:
    return float(value).hex()


def assert_same(prepared: QuantumCircuit, reference: QuantumCircuit,
                source: QuantumCircuit) -> None:
    assert prepared is not reference
    assert prepared.name == reference.name
    assert prepared.num_qubits == reference.num_qubits
    assert prepared.num_clbits == reference.num_clbits
    assert repr(prepared.global_phase) == repr(reference.global_phase)
    assert prepared.metadata == reference.metadata
    assert prepared.calibrations == reference.calibrations
    assert len(prepared.instructions) == len(reference.instructions)
    inputs = {id(inst.operation) for inst in source.instructions}
    for got, want in zip(prepared.instructions, reference.instructions):
        assert got.qubits == want.qubits
        assert got.clbits == want.clbits
        assert type(got.operation) is type(want.operation)
        assert got.operation.name == want.operation.name
        assert [_hex(p) for p in got.operation.params] == [
            _hex(p) for p in want.operation.params
        ]
        if id(want.operation) in inputs:
            assert got.operation is want.operation


def template_counts() -> dict[str, int]:
    counters = metrics_snapshot()["counters"]
    return {
        outcome: counters.get(f"transpile.templates{{outcome={outcome}}}", 0)
        for outcome in ("built", "bound", "fallback", "untraceable")
    }


def counts_since(before: dict[str, int]) -> dict[str, int]:
    after = template_counts()
    return {k: after[k] - before[k] for k in after}


@pytest.fixture(scope="module")
def problem():
    return MaxCutProblem(benchmark_graph(1))


@pytest.fixture(scope="module", params=["toronto", "guadalupe"])
def backend(request):
    return {"toronto": FakeToronto, "guadalupe": FakeGuadalupe}[
        request.param
    ]()


def _pipeline(backend, problem, **options) -> ExecutionPipeline:
    return ExecutionPipeline(
        backend=backend, cost=ExpectedCutCost(problem), **options
    )


def _points(model, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    low, high = np.array(model.bounds()).T
    points = [rng.uniform(low, high) for _ in range(20)]
    for value in (0.0, math.pi, 2 * math.pi):
        points.append(np.full(len(low), value))
    return points


class TestModelCircuits:
    @pytest.mark.parametrize("kind", ["gate", "hybrid", "pulse"])
    @pytest.mark.parametrize("go", [False, True], ids=["raw", "go"])
    def test_prepare_equals_transpile(self, problem, backend, kind, go):
        model = {
            "gate": lambda: GateLevelModel(problem),
            "hybrid": lambda: HybridGatePulseModel(problem, backend.device),
            "pulse": lambda: PulseLevelModel(problem, backend),
        }[kind]()
        pipeline = _pipeline(backend, problem, gate_optimization=go)
        before = template_counts()
        for point in _points(model, seed=len(kind) + go):
            circuit = model.build_circuit(point)
            assert_same(
                pipeline.prepare(circuit), pipeline._transpile(circuit),
                circuit,
            )
        counts = counts_since(before)
        assert counts["built"] == 1
        assert counts["untraceable"] == 0
        # the 20 random points bind; only the all-0/π/2π points may not
        assert counts["bound"] >= 20


_ANGLES = st.one_of(
    st.floats(-10.0, 10.0, allow_nan=False),
    st.sampled_from(
        [0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
         2 * math.pi, -2 * math.pi, 4 * math.pi, 1e-13]
    ),
)
_ONE_QUBIT = ["rz", "rx", "ry", "p", "h", "x", "sx", "measure"]
_TWO_QUBIT = ["rzz", "rxx", "ryy", "rzx", "crz", "cp", "cx", "cz", "swap"]
_PARAMETRIC = {"rz", "rx", "ry", "p", "rzz", "rxx", "ryy", "rzx", "crz", "cp"}


@st.composite
def _structures(draw):
    """(num_qubits, ops) with ops of (name, qubits); angles drawn apart."""
    num_qubits = draw(st.integers(2, 4))
    ops = []
    for _ in range(draw(st.integers(1, 14))):
        name = draw(st.sampled_from(_ONE_QUBIT + _TWO_QUBIT + ["barrier"]))
        if name == "barrier":
            qubits = draw(
                st.lists(st.integers(0, num_qubits - 1), min_size=1,
                         max_size=num_qubits, unique=True)
            )
        elif name in _TWO_QUBIT:
            qubits = draw(
                st.lists(st.integers(0, num_qubits - 1), min_size=2,
                         max_size=2, unique=True)
            )
        else:
            qubits = [draw(st.integers(0, num_qubits - 1))]
        ops.append((name, tuple(qubits)))
    return num_qubits, ops


def _build(num_qubits, ops, angles) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits, num_qubits, name="random")
    angles = iter(angles)
    for name, qubits in ops:
        if name == "barrier":
            circuit.barrier(*qubits)
        elif name == "measure":
            circuit.measure(qubits[0], qubits[0])
        elif name in _PARAMETRIC:
            getattr(circuit, name)(next(angles), *qubits)
        else:
            getattr(circuit, name)(*qubits)
    return circuit


@pytest.fixture(scope="module")
def random_pipelines():
    """A raw and a GO pipeline on one backend, shared by every example,
    so structures of different examples and both pipelines' settings
    meet in one template cache (a key too coarse to tell them apart
    would hand one the other's template)."""
    backend = FakeToronto()
    cost = ExpectedCutCost(MaxCutProblem(benchmark_graph(1)))
    return {
        go: ExecutionPipeline(backend=backend, cost=cost, gate_optimization=go)
        for go in (False, True)
    }


class TestRandomCircuits:
    @settings(max_examples=120, deadline=None)
    @given(
        structure=_structures(),
        first=st.lists(_ANGLES, min_size=14, max_size=14),
        second=st.lists(_ANGLES, min_size=14, max_size=14),
        go=st.booleans(),
    )
    def test_two_evaluations_equal_transpile(self, random_pipelines,
                                             structure, first, second, go):
        pipeline = random_pipelines[go]
        num_qubits, ops = structure
        for angles in (first, second):
            circuit = _build(num_qubits, ops, angles)
            assert_same(
                pipeline.prepare(circuit), pipeline._transpile(circuit),
                circuit,
            )

    def test_sums_keep_the_passes_association(self, random_pipelines):
        # rz(a) rz(b) h merges to (a + b) + π/2; a linear-form replay
        # would fold the constant first, (π/2 + a) + b, and move bits
        pipeline = random_pipelines[True]
        rng = np.random.default_rng(7)
        for a, b in rng.uniform(-3.0, 3.0, size=(20, 2)):
            circuit = QuantumCircuit(1, name="sum")
            circuit.rz(a, 0)
            circuit.rz(b, 0)
            circuit.h(0)
            assert_same(
                pipeline.prepare(circuit), pipeline._transpile(circuit),
                circuit,
            )

    def test_structures_differ_by_qubits(self, random_pipelines):
        pipeline = random_pipelines[True]
        for qubits in ((0, 1), (1, 2), (2, 0)):
            circuit = QuantumCircuit(3, name="moved")
            circuit.h(qubits[0])
            circuit.rzz(0.7, *qubits)
            circuit.rx(0.3, qubits[1])
            assert_same(
                pipeline.prepare(circuit), pipeline._transpile(circuit),
                circuit,
            )


class TestFallback:
    def _go(self) -> ExecutionPipeline:
        problem = MaxCutProblem(benchmark_graph(1))
        return _pipeline(FakeToronto(), problem, gate_optimization=True)

    def _check(self, pipeline, circuit) -> dict[str, int]:
        before = template_counts()
        assert_same(
            pipeline.prepare(circuit), pipeline._transpile(circuit), circuit
        )
        return counts_since(before)

    def test_zero_rotation_takes_the_numeric_path(self):
        pipeline = self._go()
        for angle in (0.4, 0.0, 2 * math.pi, 4 * math.pi, -2 * math.pi):
            circuit = QuantumCircuit(2, name="zero")
            circuit.h(0)
            circuit.rz(angle, 0)
            circuit.cx(0, 1)
            counts = self._check(pipeline, circuit)
            expected = "bound" if angle == 0.4 else "fallback"
            assert counts[expected] == 1, (angle, counts)

    def test_merge_to_exactly_zero_takes_the_numeric_path(self):
        pipeline = self._go()
        for a, b in ((0.5, 0.25), (0.75, -0.75), (math.pi, math.pi)):
            circuit = QuantumCircuit(1, name="merge")
            circuit.rx(a, 0)
            circuit.rx(b, 0)
            counts = self._check(pipeline, circuit)
            expected = "bound" if (a, b) == (0.5, 0.25) else "fallback"
            assert counts[expected] == 1, (a, b, counts)
            reference = pipeline._transpile(circuit)
            if (a, b) == (0.75, -0.75):
                assert len(reference.instructions) == 0

    def test_pulse_efficient_pipeline_builds_no_template(self):
        problem = MaxCutProblem(benchmark_graph(1))
        pipeline = _pipeline(FakeToronto(), problem, pulse_efficient=True)
        model = GateLevelModel(problem)
        before = template_counts()
        for point in ([0.7, 0.4], [0.9, 0.2]):
            circuit = model.build_circuit(point)
            assert_same(
                pipeline.prepare(circuit), pipeline._transpile(circuit),
                circuit,
            )
        counts = counts_since(before)
        assert counts["built"] == 0 and counts["bound"] == 0
        assert counts["untraceable"] == 2
        # remembered: no template
        assert len(pipeline.backend.transpile_templates) == 1

    def test_symbolic_circuit_is_transpiled(self):
        from repro.circuits.parameter import Parameter

        pipeline = self._go()
        theta = Parameter("theta")
        circuit = QuantumCircuit(2, name="symbolic")
        circuit.rx(theta, 0)
        circuit.cx(0, 1)
        before = template_counts()
        prepared = pipeline.prepare(circuit)
        reference = pipeline._transpile(circuit)
        assert [repr(i.operation) for i in prepared.instructions] == [
            repr(i.operation) for i in reference.instructions
        ]
        assert counts_since(before)["untraceable"] == 1
        assert len(pipeline.backend.transpile_templates) == 0


class TestReuse:
    def test_one_build_per_structure(self, problem):
        backend = FakeToronto()
        model = HybridGatePulseModel(problem, backend.device)
        pipeline = _pipeline(backend, problem, gate_optimization=True)
        before = template_counts()
        for seed in range(12):
            circuit = model.build_circuit(model.initial_point(seed))
            assert_same(
                pipeline.prepare(circuit), pipeline._transpile(circuit),
                circuit,
            )
        assert counts_since(before) == {
            "built": 1, "bound": 12, "fallback": 0, "untraceable": 0,
        }
        assert backend.transpile_templates.stats()["hits"] == 11

    def test_no_build_when_caching_is_disabled(self, problem):
        backend = FakeToronto()
        model = GateLevelModel(problem)
        pipeline = _pipeline(backend, problem, gate_optimization=True)
        before = template_counts()
        with caching_disabled():
            for seed in range(3):
                circuit = model.build_circuit(model.initial_point(seed))
                assert_same(
                    pipeline.prepare(circuit), pipeline._transpile(circuit),
                    circuit,
                )
        assert counts_since(before)["built"] == 0
        assert len(backend.transpile_templates) == 0

    def test_bound_circuits_share_no_mutable_state(self, problem):
        backend = FakeToronto()
        model = GateLevelModel(problem)
        pipeline = _pipeline(backend, problem)
        first = pipeline.prepare(model.build_circuit([0.3, 0.2]))
        second = pipeline.prepare(model.build_circuit([0.6, 0.1]))
        assert first.instructions is not second.instructions
        assert first.metadata is not second.metadata
        for key in ("initial_layout", "final_layout"):
            assert first.metadata[key] == second.metadata[key]
            assert first.metadata[key] is not second.metadata[key]


class TestSharedTemplates:
    """Templates live on the backend, keyed by every setting
    ``_transpile`` reads: pipelines with equal settings share one, any
    other pipeline builds its own, and pool workers get none."""

    def _circuit(self, problem, seed=0):
        model = GateLevelModel(problem)
        return model.build_circuit(model.initial_point(seed))

    def test_equal_settings_share_one_template(self, problem):
        backend = FakeToronto()
        first = _pipeline(backend, problem, gate_optimization=True)
        second = _pipeline(backend, problem, gate_optimization=True)
        replaced = replace(first, jobs=3)
        before = template_counts()
        for seed, pipeline in enumerate((first, second, replaced)):
            circuit = self._circuit(problem, seed)
            assert_same(
                pipeline.prepare(circuit), pipeline._transpile(circuit),
                circuit,
            )
        assert counts_since(before) == {
            "built": 1, "bound": 3, "fallback": 0, "untraceable": 0,
        }
        assert len(backend.transpile_templates) == 1

    @pytest.mark.parametrize(
        "setting",
        [
            dict(layout=[1, 2, 3, 5, 8, 11]),
            dict(routing_seed=12),
            dict(gate_optimization=True),
            dict(pulse_efficient=True),
        ],
        ids=["layout", "routing_seed", "gate_optimization",
             "pulse_efficient"],
    )
    def test_other_settings_never_share(self, problem, setting):
        backend = FakeToronto()
        base = _pipeline(backend, problem)
        other = _pipeline(backend, problem, **setting)
        circuit = self._circuit(problem)
        base.prepare(circuit)
        before = template_counts()
        assert_same(other.prepare(circuit), other._transpile(circuit), circuit)
        counts = counts_since(before)
        # a pulse-efficient pipeline remembers "no template" instead
        outcome = "untraceable" if "pulse_efficient" in setting else "built"
        assert counts[outcome] == 1 and counts["bound"] == (outcome == "built")
        assert len(backend.transpile_templates) == 2

    def test_pickled_backend_carries_no_template(self, problem):
        backend = FakeToronto()
        pipeline = _pipeline(backend, problem)
        circuit = self._circuit(problem)
        pipeline.prepare(circuit)
        assert len(backend.transpile_templates) == 1
        for clone in (pickle.loads(pickle.dumps(backend)),
                      copy.deepcopy(backend)):
            assert len(clone.transpile_templates) == 0
            assert clone.transpile_templates.name == (
                backend.transpile_templates.name
            )
            copied = _pipeline(clone, problem)
            assert_same(
                copied.prepare(circuit), pipeline._transpile(circuit),
                circuit,
            )
        assert len(backend.transpile_templates) == 1


class TestSlots:
    def _slots(self):
        tape = Tape([True, False])
        return tape, Slot(tape, 0), Slot(tape, 1)

    @pytest.mark.parametrize(
        "use",
        [float, bool, abs, round, lambda s: s < 1.0, lambda s: s % 2.0,
         lambda s: 1.0 >= s, int],
    )
    def test_numeric_uses_raise(self, use):
        _tape, slot, _other = self._slots()
        with pytest.raises(ParameterError):
            use(slot)

    def test_identity_equality_and_unique_repr(self):
        _tape, a, b = self._slots()
        assert a == a and a != b and a != 0.0
        assert len({a, b, a}) == 2
        assert repr(a) != repr(b)

    def test_replay_is_the_same_float_arithmetic(self):
        tape, a, b = self._slots()
        exprs = [
            -(a / 2), 3.0 * b - a, (a + b) + math.pi, math.pi + (a + b),
            1.0 / a, 2 - b, a * b / 3,
        ]
        x, y = 0.1234567891, -2.718281828
        direct = [
            -(x / 2), 3.0 * y - x, (x + y) + math.pi, math.pi + (x + y),
            1.0 / x, 2 - y, x * y / 3,
        ]
        values = tape.evaluate([x, y])
        assert [_hex(values[e._index]) for e in exprs] == [
            _hex(v) for v in direct
        ]

    def test_guard_follows_the_angle_lineage(self):
        tape, angle, phase = self._slots()
        derived = angle + phase
        phase_only = phase + math.pi
        assert tape.guarded[derived._index]
        assert not tape.guarded[phase_only._index]

    def test_unrecordable_operand_raises(self):
        _tape, a, _b = self._slots()
        with pytest.raises(ParameterError):
            operator.add(a, 1j)


def test_structure_key_sees_qubits_types_and_arity():
    base = QuantumCircuit(2)
    base.rz(0.1, 0)
    moved = QuantumCircuit(2)
    moved.rz(0.1, 1)
    other = QuantumCircuit(2)
    other.rx(0.1, 0)
    keys = {structure_of(c)[0] for c in (base, moved, other)}
    assert len(keys) == 3
    again = QuantumCircuit(2)
    again.rz(2.5, 0)
    assert structure_of(again)[0] == structure_of(base)[0]
    assert structure_of(again)[1] == [0.0, 2.5]
