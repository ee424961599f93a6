"""Tests for simulation-method dispatch and the method table."""

import importlib

import pytest

from repro.backends import (
    METHODS,
    FakeGuadalupe,
    Target,
    execute_circuit,
    select_method,
)
from repro.backends.engine import (
    _METHODS,
    _check_qubit_budget,
    _CircuitPlan,
)
from repro.circuits import QuantumCircuit
from repro.exceptions import BackendError
from repro.experiments.__main__ import main as experiments_main
from repro.noise import NoiseModel, ReadoutError
from repro.transpiler import CouplingMap


def line_circuit(n, measure=True):
    qc = QuantumCircuit(n, n)
    qc.h(0)
    for i in range(n - 1):
        qc.cx(i, i + 1)
    if measure:
        for i in range(n):
            qc.measure(i, i)
    return qc


def readout_only_noise(num_qubits):
    noise = NoiseModel(num_qubits)
    noise.set_readout_error(ReadoutError.uniform(num_qubits, 0.03))
    return noise


@pytest.fixture(scope="module")
def backend():
    return FakeGuadalupe()


@pytest.mark.parametrize(
    "module",
    ["repro.backends", "repro.service", "repro.simulators", "repro.telemetry"],
)
def test_public_names_resolve(module):
    imported = importlib.import_module(module)
    missing = [
        name for name in imported.__all__ if not hasattr(imported, name)
    ]
    assert missing == []


class TestSelectMethod:
    def test_noiseless_picks_statevector(self, backend):
        qc = line_circuit(4)
        assert select_method(qc, backend.target, None) == "statevector"

    def test_readout_only_noise_picks_statevector(self, backend):
        # assignment error is classical post-processing: pure-state
        # simulation stays exact
        qc = line_circuit(4)
        noise = readout_only_noise(backend.num_qubits)
        assert select_method(qc, backend.target, noise) == "statevector"

    def test_small_noisy_picks_density_matrix(self, backend):
        qc = line_circuit(4)
        assert (
            select_method(qc, backend.target, backend.noise_model)
            == "density_matrix"
        )

    def test_large_noisy_raises_the_density_budget_error(self, backend):
        # no statistical fallback past the density budget: auto keeps
        # the density matrix and the run fails at its budget check
        qc = line_circuit(15)
        assert (
            select_method(qc, backend.target, backend.noise_model)
            == "density_matrix"
        )
        with pytest.raises(BackendError) as excinfo:
            execute_circuit(qc, backend.target, backend.noise_model, shots=1)
        assert str(excinfo.value).startswith(
            "15 active qubits exceed the 14-qubit density_matrix simulator "
            "budget; "
        )

    def test_explicit_method_respected(self, backend):
        qc = line_circuit(4)
        for method in ("density_matrix", "statevector"):
            assert (
                select_method(qc, backend.target, backend.noise_model, method)
                == method
            )

    def test_methods_listed_in_table_order(self):
        assert METHODS == ("auto", "density_matrix", "statevector")

    def test_unknown_method_rejected(self, backend):
        # the error lists every valid name
        with pytest.raises(BackendError) as excinfo:
            select_method(
                line_circuit(2), backend.target, None, "tensor_network"
            )
        message = str(excinfo.value)
        assert "unknown simulation method" in message
        for name in ("auto", "density_matrix", "statevector"):
            assert name in message

    def test_resolved_method_lands_in_metadata(self, backend):
        result = backend.run(line_circuit(3), shots=32, seed=0)
        assert result.experiments[0].metadata["method"] == "density_matrix"
        result = backend.run(
            line_circuit(3), shots=32, seed=0, with_noise=False
        )
        assert result.experiments[0].metadata["method"] == "statevector"


def non_clifford_line(n):
    qc = line_circuit(n)
    qc.rz(0.3, 0)
    return qc


class TestAutoRule:
    """``auto`` is ``statevector`` when no noise touches the state and
    ``density_matrix`` otherwise, at every width and for Clifford
    circuits too.  (``TestSelectMethod`` has the noiseless, readout-only
    and small noisy cases.)"""

    def test_noisy_non_clifford_picks_density(self, backend):
        assert select_method(
            non_clifford_line(8), backend.target, backend.noise_model
        ) == "density_matrix"

    def test_budget_does_not_change_the_pick(self, backend):
        # the density matrix's budget is 14 qubits
        noise = backend.noise_model
        for num_qubits in (14, 15):
            assert select_method(
                non_clifford_line(num_qubits), backend.target, noise
            ) == "density_matrix"

    def test_nothing_fits_noisy_raises_density_budget(self):
        # 30 noisy qubits: past both budgets, and statevector does not
        # support the noise; the density matrix names its own budget
        target = Target(30, CouplingMap.from_line(30))
        noise = NoiseModel(30)
        noise.add_depolarizing_error("cx", 0.02, 2)
        circuit = non_clifford_line(30)
        assert select_method(circuit, target, noise) == "density_matrix"
        with pytest.raises(BackendError, match="14-qubit density_matrix"):
            execute_circuit(circuit, target, noise, shots=1)

    def test_nothing_fits_noiseless_picks_statevector(self):
        # 30 noiseless non-Clifford qubits: past every budget;
        # statevector supports it and names its own budget
        target = Target(30, CouplingMap.from_line(30))
        assert (
            select_method(non_clifford_line(30), target, None)
            == "statevector"
        )

    def test_noiseless_clifford_past_budgets_picks_statevector(self):
        target = Target(30, CouplingMap.from_line(30))
        assert select_method(line_circuit(30), target, None) == "statevector"
        with pytest.raises(BackendError, match="26-qubit statevector"):
            execute_circuit(line_circuit(30), target, None, shots=1)

    def test_clifford_with_pauli_noise_picks_density(self, backend):
        # depolarizing gate noise touches the state, Clifford or not
        noise = depolarizing_noise(backend.num_qubits)
        for num_qubits in (4, 13):
            assert select_method(
                line_circuit(num_qubits), backend.target, noise
            ) == "density_matrix"

    def test_no_active_qubit_reports_the_table_head(self, backend):
        # nothing to simulate: the run returns empty counts without
        # evolving anything and names the table's first method
        empty = QuantumCircuit(2)
        for noise in (None, readout_only_noise(backend.num_qubits)):
            assert select_method(
                empty, backend.target, noise
            ) == "density_matrix"
        result = execute_circuit(empty, backend.target, None, shots=8)
        assert dict(result.counts) == {}
        assert result.metadata["method"] == "density_matrix"


class TestQubitBudgets:
    def test_density_error_names_method_and_escape_hatch(self, backend):
        qc = line_circuit(15)
        with pytest.raises(BackendError) as excinfo:
            execute_circuit(
                qc,
                backend.target,
                backend.noise_model,
                shots=1,
                method="density_matrix",
            )
        message = str(excinfo.value)
        assert "15 active qubits exceed the 14-qubit density_matrix" in message
        assert 'noiseless circuits run on method="statevector"' in message

    def test_statevector_budget_enforced(self):
        target = Target(30, CouplingMap.from_line(30))
        qc = line_circuit(30)
        with pytest.raises(BackendError, match="statevector"):
            execute_circuit(qc, target, shots=1, method="statevector")

    def test_error_lists_each_method_that_fits(self, backend):
        # noiseless GHZ: statevector supports it within budget
        with pytest.raises(BackendError) as excinfo:
            execute_circuit(
                line_circuit(15), backend.target, None, shots=1,
                method="density_matrix",
            )
        message = str(excinfo.value)
        assert message.endswith(
            "; methods within budget: statevector (<= 26 qubits)"
        )

    def test_error_alternatives_respect_capability(self, backend):
        # a noisy 15q circuit pinned to density_matrix: statevector's
        # budget admits it but its predicate does not, so the error
        # must not advertise it
        with pytest.raises(BackendError) as excinfo:
            execute_circuit(
                line_circuit(15), backend.target, backend.noise_model,
                shots=1, method="density_matrix",
            )
        message = str(excinfo.value)
        assert "15 active qubits exceed" in message
        assert "within budget" not in message


def depolarizing_noise(num_qubits):
    """Pauli-mixture gate errors only."""
    noise = NoiseModel(num_qubits)
    noise.add_depolarizing_error("cx", 0.02, 2)
    noise.add_depolarizing_error("h", 0.002, 1)
    return noise


ALL_METHODS = ["density_matrix", "statevector"]


class TestMethodTable:
    """Each entry of the fixed method table: its budget and escape
    hatch, its capability predicate and its executor."""

    @staticmethod
    def _plan(num_qubits, register):
        target = Target(register, CouplingMap.from_line(register))
        return _CircuitPlan(line_circuit(num_qubits), target)

    @pytest.mark.parametrize(
        "method, budget",
        [
            ("density_matrix", 14),
            ("statevector", 26),
        ],
    )
    def test_budget_admits_its_limit(self, method, budget):
        # only the check runs: nothing is simulated
        _check_qubit_budget(method, self._plan(budget, budget + 1), None)

    @pytest.mark.parametrize(
        "method, budget, escape_hatch, alternatives",
        [
            (
                "density_matrix", 14, "holds the full 4^n operator",
                "statevector (<= 26 qubits)",
            ),
            ("statevector", 26, "pure states scale 2^n", None),
        ],
        ids=ALL_METHODS,
    )
    def test_one_qubit_past_the_budget_raises(
        self, method, budget, escape_hatch, alternatives
    ):
        with pytest.raises(BackendError) as excinfo:
            _check_qubit_budget(
                method, self._plan(budget + 1, budget + 1), None
            )
        message = str(excinfo.value)
        assert message.startswith(
            f"{budget + 1} active qubits exceed the {budget}-qubit "
            f"{method} simulator budget; "
        )
        assert escape_hatch in message
        if alternatives is None:
            assert "within budget" not in message
        else:
            assert message.endswith(
                f"; methods within budget: {alternatives}"
            )

    @pytest.mark.parametrize(
        "clifford, noise_kind, supporting",
        [
            (True, None, ALL_METHODS),
            (False, None, ALL_METHODS),
            (True, "readout", ALL_METHODS),
            (True, "depolarizing", ["density_matrix"]),
            (False, "depolarizing", ["density_matrix"]),
            (True, "relaxation", ["density_matrix"]),
        ],
        ids=[
            "noiseless-clifford",
            "noiseless-non-clifford",
            "readout-clifford",
            "depolarizing-clifford",
            "depolarizing-non-clifford",
            "relaxation-clifford",
        ],
    )
    def test_capability_predicates(
        self, backend, clifford, noise_kind, supporting
    ):
        circuit = line_circuit(4) if clifford else non_clifford_line(4)
        noise = {
            None: lambda: None,
            "readout": lambda: readout_only_noise(backend.num_qubits),
            "depolarizing": lambda: depolarizing_noise(backend.num_qubits),
            "relaxation": lambda: backend.noise_model,
        }[noise_kind]()
        plan = _CircuitPlan(circuit, backend.target)
        assert [
            name for name, entry in _METHODS.items()
            if entry.supports(plan, noise)
        ] == supporting

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_pinned_method_runs_its_own_back_end(self, backend, method):
        result = execute_circuit(
            line_circuit(3), backend.target, None, shots=64, seed=1,
            method=method,
        )
        assert result.metadata["method"] == method
        assert sum(result.counts.values()) == 64
        assert set(result.counts) <= {"000", "111"}

    def test_cli_method_choices_are_the_table(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            experiments_main(["table1", "--method", "tensor_network"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "tensor_network" in err
        for name in METHODS:
            assert name in err

    @pytest.mark.parametrize(
        "module",
        [
            "repro.simulators.registry",
            "repro.simulators.stabilizer",
            "repro.simulators.trajectory",
            "repro.transpiler.passes.clifford_blocks",
        ],
    )
    def test_deleted_modules_stay_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_no_registry_module_remains(self):
        for module in ("repro.backends", "repro.backends.engine"):
            imported = importlib.import_module(module)
            # no computed module attributes behind METHODS
            assert "__getattr__" not in vars(imported)
            assert not hasattr(imported, "register_method")
            assert not hasattr(imported, "set_method_qubit_budget")


class TestChannelWidth:
    """A gate channel of the wrong width is refused wherever the state
    evolves under it: acting on a subset of the gate's qubits would be
    wrong physics.  The statevector escape hatch drops every state
    channel, so it has nothing to refuse."""

    @staticmethod
    def _misattached(num_qubits):
        noise = NoiseModel(num_qubits)
        noise.add_depolarizing_error("cx", 0.02, 1)
        return noise

    @pytest.mark.parametrize("method", ["auto", "density_matrix"])
    def test_one_qubit_channel_on_cx_raises(self, backend, method):
        with pytest.raises(BackendError) as excinfo:
            execute_circuit(
                line_circuit(2), backend.target,
                self._misattached(backend.num_qubits), shots=8, seed=1,
                method=method,
            )
        assert str(excinfo.value) == (
            "1-qubit noise channel 'depolarizing(0.02)' attached to a "
            "2-qubit operation"
        )

    def test_statevector_escape_hatch_drops_the_channel(self, backend):
        result = execute_circuit(
            line_circuit(2), backend.target,
            self._misattached(backend.num_qubits), shots=64, seed=1,
            method="statevector",
        )
        noiseless = execute_circuit(
            line_circuit(2), backend.target, None, shots=64, seed=1,
            method="statevector",
        )
        assert dict(result.counts) == dict(noiseless.counts)


class TestStatevectorMethod:
    def test_noiseless_counts_byte_identical_to_density(self, backend):
        qc = line_circuit(5)
        qc_rz = line_circuit(5)
        qc_rz.rz(0.3, 2)
        for circuit in (qc, qc_rz):
            sv = execute_circuit(
                circuit, backend.target, None, shots=2048, seed=11,
                method="statevector",
            )
            dm = execute_circuit(
                circuit, backend.target, None, shots=2048, seed=11,
                method="density_matrix",
            )
            assert dict(sv.counts) == dict(dm.counts)
            assert sv.duration == dm.duration
            assert sv.metadata["method"] == "statevector"
            assert dm.metadata["method"] == "density_matrix"

    def test_readout_only_noise_byte_identical_to_density(self, backend):
        qc = line_circuit(4)
        noise = readout_only_noise(backend.num_qubits)
        sv = execute_circuit(
            qc, backend.target, noise, shots=2048, seed=3,
            method="statevector",
        )
        dm = execute_circuit(
            qc, backend.target, noise, shots=2048, seed=3,
            method="density_matrix",
        )
        assert dict(sv.counts) == dict(dm.counts)

    def test_statevector_breaks_14_qubit_wall(self, backend):
        qc = line_circuit(16)
        result = execute_circuit(
            qc, backend.target, None, shots=128, seed=1
        )
        assert result.metadata["method"] == "statevector"
        assert sum(result.counts.values()) == 128


class TestServiceIntegration:
    def test_pooled_batch_threads_method(self):
        # a pooled batch hands the method to every worker's run
        backend = FakeGuadalupe()
        try:
            result = backend.run(
                [line_circuit(3), line_circuit(4)], shots=64, seed=1,
                jobs=2, method="statevector",
            )
        finally:
            backend.close_services()
        assert result.metadata["service"]["shards"] == 2
        assert [e.metadata["method"] for e in result.experiments] == [
            "statevector"
        ] * 2
