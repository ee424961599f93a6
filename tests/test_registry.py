"""Tests for the simulation-method registry: plugins, budgets, errors."""

import importlib
from dataclasses import replace

import numpy as np
import pytest

from repro.backends import (
    FakeGuadalupe,
    execute_circuit,
    method_names,
    method_qubit_budget,
    method_qubit_budgets,
    select_method,
    set_method_qubit_budget,
)
from repro.backends.engine import _CircuitPlan
from repro.backends.result import Counts, ExperimentResult
from repro.circuits import QuantumCircuit
from repro.exceptions import BackendError
from repro.simulators import registry
from repro.simulators.registry import (
    MethodDescriptor,
    adopt_method_budgets,
    autodetect_method_budgets,
    check_qubit_budget,
    method_descriptor,
    rank_methods,
    register_method,
    registered_methods,
    unregister_method,
)


def line_circuit(n):
    qc = QuantumCircuit(n, n)
    qc.h(0)
    for i in range(n - 1):
        qc.cx(i, i + 1)
    for i in range(n):
        qc.measure(i, i)
    return qc


@pytest.fixture(scope="module")
def backend():
    return FakeGuadalupe()


class TestRegistryBasics:
    def test_builtins_registered_in_order(self):
        assert method_names() == (
            "density_matrix", "statevector", "trajectory", "stabilizer"
        )
        assert method_names(include_auto=True)[0] == "auto"

    def test_descriptor_lookup(self):
        descriptor = method_descriptor("trajectory")
        assert descriptor.statistical
        assert not method_descriptor("density_matrix").statistical

    def test_unknown_method_error_names_registry(self):
        with pytest.raises(BackendError, match="stabilizer"):
            method_descriptor("does_not_exist")

    def test_duplicate_registration_rejected(self):
        descriptor = method_descriptor("trajectory")
        with pytest.raises(BackendError, match="already registered"):
            register_method(descriptor)
        # replace=True round-trips cleanly
        register_method(descriptor, replace=True)
        assert method_descriptor("trajectory") is descriptor

    def test_invalid_names_rejected(self):
        base = method_descriptor("statevector")
        for name in ("auto", ""):
            with pytest.raises(BackendError, match="invalid method name"):
                register_method(
                    MethodDescriptor(
                        name=name,
                        supports=base.supports,
                        cost=base.cost,
                        execute=base.execute,
                        default_qubit_budget=4,
                    )
                )

    def test_unregister_unknown_rejected(self):
        with pytest.raises(BackendError, match="not registered"):
            unregister_method("does_not_exist")

    @pytest.mark.parametrize(
        "module",
        ["repro.service", "repro.simulators.registry", "repro.telemetry"],
    )
    def test_public_names_resolve(self, module):
        imported = importlib.import_module(module)
        missing = [
            name for name in imported.__all__
            if not hasattr(imported, name)
        ]
        assert missing == []


class TestPluginRegistration:
    """A toy back-end plugs in and immediately joins auto dispatch."""

    @staticmethod
    def _toy_descriptor(**overrides):
        def execute(plan, request):
            # a fake sampler: every shot lands on outcome 0
            return ExperimentResult(
                Counts({"0" * len(plan.measured_clbits): request.shots}),
                0,
                metadata={"method": "toy"},
            )

        fields = dict(
            name="toy",
            supports=lambda plan, noise: noise is None,
            cost=lambda plan, noise: 0.5,  # cheaper than everything
            execute=execute,
            default_qubit_budget=64,
        )
        fields.update(overrides)
        return MethodDescriptor(**fields)

    def test_plugin_participates_in_dispatch_and_budgets(self, backend):
        register_method(self._toy_descriptor())
        try:
            assert "toy" in method_names()
            circuit = line_circuit(3)
            # cheapest supporting method wins auto for noiseless runs
            assert select_method(circuit, backend.target, None) == "toy"
            # ...but its predicate keeps it out of noisy dispatch
            assert (
                select_method(circuit, backend.target, backend.noise_model)
                == "density_matrix"
            )
            result = execute_circuit(
                circuit, backend.target, None, shots=64, seed=1,
                method="toy",
            )
            assert result.metadata["method"] == "toy"
            assert sum(result.counts.values()) == 64
            # budgets work like any built-in, including the error text
            set_method_qubit_budget("toy", 2)
            with pytest.raises(BackendError, match="2-qubit toy"):
                execute_circuit(
                    circuit, backend.target, None, shots=1, method="toy"
                )
        finally:
            unregister_method("toy")
        assert "toy" not in method_names()
        with pytest.raises(BackendError, match="unknown simulation"):
            execute_circuit(
                line_circuit(2), backend.target, None, shots=1,
                method="toy",
            )


class TestRankMethods:
    """The four ``auto`` ranking rules of :func:`rank_methods`."""

    @staticmethod
    def _ranked(backend, noise_model, qubits=3):
        plan = _CircuitPlan(line_circuit(qubits), backend.target)
        return [d.name for d in rank_methods(plan, noise_model)]

    def test_noiseless_ranking_follows_shipped_costs(self, backend):
        # 2^n < 4^n < tableau work at 3 qubits; statistical last
        assert self._ranked(backend, None) == [
            "statevector", "density_matrix", "stabilizer", "trajectory"
        ]

    def test_unsupporting_methods_are_not_candidates(self, backend):
        # relaxation noise: no pure state, no Pauli-only tableau
        assert self._ranked(backend, backend.noise_model) == [
            "density_matrix", "trajectory"
        ]

    def test_over_budget_methods_rank_last(self, backend):
        set_method_qubit_budget("density_matrix", 2)
        try:
            assert self._ranked(backend, backend.noise_model) == [
                "trajectory", "density_matrix"
            ]
        finally:
            set_method_qubit_budget("density_matrix", None)

    def test_exact_methods_outrank_cheaper_statistical_ones(self, backend):
        register_method(
            TestPluginRegistration._toy_descriptor(
                name="toy_sampler",
                supports=lambda plan, noise: True,
                statistical=True,
            )
        )
        try:
            assert self._ranked(backend, backend.noise_model) == [
                "density_matrix", "toy_sampler", "trajectory"
            ]
        finally:
            unregister_method("toy_sampler")

    def test_cost_ties_break_by_registration_order(self, backend):
        for first, second in (("toy_a", "toy_b"), ("toy_b", "toy_a")):
            for name in (first, second):
                register_method(
                    TestPluginRegistration._toy_descriptor(name=name)
                )
            try:
                assert self._ranked(backend, None)[:2] == [first, second]
            finally:
                unregister_method(first)
                unregister_method(second)

    def test_no_supporting_method_names_the_registry(
        self, backend, monkeypatch
    ):
        refuses = TestPluginRegistration._toy_descriptor(
            supports=lambda plan, noise: False
        )
        monkeypatch.setattr(registry, "_REGISTRY", {"toy": refuses})
        with pytest.raises(BackendError, match=r"\('toy',\)"):
            self._ranked(backend, None)

    def test_ranking_reads_the_registered_cost_model(self, backend):
        shipped = method_descriptor("statevector")
        register_method(
            replace(shipped, cost=lambda plan, noise: float("inf")),
            replace=True,
        )
        try:
            assert self._ranked(backend, None)[0] == "density_matrix"
        finally:
            register_method(shipped, replace=True)
        assert self._ranked(backend, None)[0] == "statevector"
        assert method_names()[1] == "statevector"  # order kept


class TestBudgets:
    def test_snapshot_and_adopt(self):
        budgets = method_qubit_budgets()
        assert budgets["density_matrix"] == 14
        try:
            adopt_method_budgets(
                {"density_matrix": 5, "from_another_process": 9}
            )
            # unknown plugin names are skipped, known ones adopted
            assert method_qubit_budget("density_matrix") == 5
        finally:
            set_method_qubit_budget("density_matrix", None)
        assert method_qubit_budget("density_matrix") == 14

    def test_budget_error_names_alternatives_and_autodetect(self):
        with pytest.raises(BackendError) as excinfo:
            check_qubit_budget("density_matrix", 15)
        message = str(excinfo.value)
        assert "15 active qubits exceed the 14-qubit density_matrix" in message
        for name in ("statevector", "trajectory", "stabilizer"):
            assert name in message
        assert "set_method_qubit_budget" in message
        assert "autodetect_method_budgets" in message

    def test_budget_error_alternatives_respect_capability(self, backend):
        # a 30q non-Clifford noiseless circuit pinned to statevector:
        # the tableau cannot run it, so the error must not advertise it
        circuit = QuantumCircuit(30, 30)
        for q in range(30):
            circuit.rz(0.3, q)
            circuit.sx(q)
            circuit.measure(q, q)
        from repro.backends import Target
        from repro.transpiler import CouplingMap

        with pytest.raises(BackendError) as excinfo:
            execute_circuit(
                circuit, Target(30, CouplingMap.from_line(30)), None,
                shots=1, method="statevector",
            )
        message = str(excinfo.value)
        assert "30 active qubits exceed" in message
        assert "stabilizer" not in message

    def test_parent_budget_changes_reach_live_workers(self):
        """Budgets travel with every shard, not just the pool start.

        ``set_method_qubit_budget`` in the parent *after* the worker
        pool exists must still govern jobs — the per-shard budget
        snapshot is the fix for the old initializer-only limitation.
        """
        backend = FakeGuadalupe()
        try:
            # spin the pool up under the default budgets
            backend.run([line_circuit(3)] * 2, shots=8, seed=0, jobs=2)
            set_method_qubit_budget("density_matrix", 3)
            try:
                with pytest.raises(BackendError, match="3-qubit"):
                    backend.run(
                        [line_circuit(4)] * 2, shots=8, seed=0, jobs=2,
                        method="density_matrix",
                    )
            finally:
                set_method_qubit_budget("density_matrix", None)
        finally:
            backend.close_services()


class TestAutodetectBudgets:
    def test_shipped_defaults_are_a_floor(self):
        tiny = autodetect_method_budgets(memory_bytes=1)
        assert tiny == {
            name: descriptor.default_qubit_budget
            for name, descriptor in zip(
                method_names(), registered_methods()
            )
        }

    def test_derived_budgets_scale_with_memory(self):
        budgets = autodetect_method_budgets(memory_bytes=1 << 40)
        # 2^39 usable: density 4^n * 16 <= 2^39 -> 17 qubits;
        # statevector/trajectory 2^n * 16 <= 2^39 -> 35 qubits
        assert budgets["density_matrix"] == 17
        assert budgets["statevector"] == 35
        assert budgets["trajectory"] == 35
        # the packed tableau is quadratic (~n^2/2 bytes): any realistic
        # memory grant derives past the registry ceiling
        from repro.simulators.registry import MAX_AUTODETECT_QUBITS

        assert budgets["stabilizer"] == MAX_AUTODETECT_QUBITS

    def test_apply_installs_and_reset_restores(self):
        try:
            installed = autodetect_method_budgets(
                memory_bytes=1 << 40, apply=True
            )
            assert method_qubit_budget("density_matrix") == installed[
                "density_matrix"
            ]
        finally:
            for name in method_names():
                set_method_qubit_budget(name, None)
        assert method_qubit_budget("density_matrix") == 14

    def test_bounded_memory_models_terminate(self):
        """A constant state_bytes model must not hang the derivation."""
        from repro.simulators.registry import MAX_AUTODETECT_QUBITS

        base = method_descriptor("statevector")
        register_method(
            MethodDescriptor(
                name="flat_memory",
                supports=lambda plan, noise: False,
                cost=lambda plan, noise: float("inf"),
                execute=base.execute,
                default_qubit_budget=4,
                state_bytes=lambda n: 4096,  # constant: never exceeds
            )
        )
        try:
            budgets = autodetect_method_budgets(memory_bytes=1 << 30)
            assert budgets["flat_memory"] == MAX_AUTODETECT_QUBITS
        finally:
            unregister_method("flat_memory")

    def test_manual_overrides_are_part_of_the_floor(self):
        # autodetection never lowers a deliberate override
        try:
            set_method_qubit_budget("statevector", 40)
            budgets = autodetect_method_budgets(memory_bytes=8 << 30)
            assert budgets["statevector"] == 40
        finally:
            set_method_qubit_budget("statevector", None)

    def test_fraction_validated(self):
        with pytest.raises(BackendError, match="fraction"):
            autodetect_method_budgets(memory_bytes=1 << 30, fraction=0.0)

    def test_meminfo_fallback_never_lowers(self):
        # whatever this machine reports, the floor holds
        budgets = autodetect_method_budgets()
        assert budgets["density_matrix"] >= 14
        assert budgets["statevector"] >= 26
