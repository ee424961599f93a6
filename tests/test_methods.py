"""Tests for simulation-method dispatch and the trajectory back-end."""

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
from repro.exceptions import BackendError, SimulatorError
from repro.experiments.__main__ import main as experiments_main
from repro.noise import NoiseModel, ReadoutError
from repro.simulators.trajectory import split_shots
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

    def test_large_noisy_picks_trajectory(self, backend):
        qc = line_circuit(16)
        assert (
            select_method(qc, backend.target, backend.noise_model)
            == "trajectory"
        )

    def test_explicit_method_respected(self, backend):
        qc = line_circuit(4)
        for method in ("density_matrix", "statevector", "trajectory"):
            assert (
                select_method(qc, backend.target, backend.noise_model, method)
                == method
            )

    def test_methods_listed_in_table_order(self):
        assert METHODS == (
            "auto", "density_matrix", "statevector", "trajectory",
            "stabilizer",
        )

    def test_unknown_method_rejected(self, backend):
        # the error lists every valid name
        with pytest.raises(BackendError) as excinfo:
            select_method(
                line_circuit(2), backend.target, None, "tensor_network"
            )
        message = str(excinfo.value)
        assert "unknown simulation method" in message
        for name in ("auto", "density_matrix", "statevector",
                     "trajectory", "stabilizer"):
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


class TestRanking:
    """The ``auto`` ranking rules of :func:`select_method`: a method
    within its qubit budget before one past it, exact before statistical
    while within budget, then lower cost, then table order.
    (``TestSelectMethod`` has the noiseless and small noisy cases.)"""

    def test_exact_outranks_cheaper_statistical(self, backend):
        circuit = non_clifford_line(8)
        plan = _CircuitPlan(circuit, backend.target)
        noise = backend.noise_model
        assert _METHODS["trajectory"].cost(plan, noise) < (
            _METHODS["density_matrix"].cost(plan, noise)
        )
        assert select_method(circuit, backend.target, noise) == (
            "density_matrix"
        )

    def test_within_budget_outranks_over_budget(self, backend):
        # the density matrix's budget is 14 qubits
        noise = backend.noise_model
        assert (
            select_method(non_clifford_line(14), backend.target, noise)
            == "density_matrix"
        )
        assert (
            select_method(non_clifford_line(15), backend.target, noise)
            == "trajectory"
        )

    def test_nothing_fits_picks_the_cheapest(self):
        # 30 noisy non-Clifford qubits: past the density and trajectory
        # budgets, and neither statevector nor the tableau supports it;
        # the cheaper trajectory is picked and names its own budget
        target = Target(30, CouplingMap.from_line(30))
        noise = NoiseModel(30)
        noise.add_depolarizing_error("cx", 0.02, 2)
        circuit = non_clifford_line(30)
        assert select_method(circuit, target, noise) == "trajectory"
        with pytest.raises(BackendError, match="26-qubit trajectory"):
            execute_circuit(circuit, target, noise, shots=1)

    def test_nothing_fits_noiseless_picks_statevector(self):
        # 30 noiseless non-Clifford qubits: past every amplitude budget,
        # and the tableau cannot run it; statevector is the cheapest
        target = Target(30, CouplingMap.from_line(30))
        assert (
            select_method(non_clifford_line(30), target, None)
            == "statevector"
        )

    def test_noiseless_clifford_past_amplitude_budgets_picks_stabilizer(
        self,
    ):
        target = Target(30, CouplingMap.from_line(30))
        assert select_method(line_circuit(30), target, None) == "stabilizer"

    def test_table_order_breaks_cost_ties(self, backend):
        # no active qubit: density 4^0 and statevector 2^0 tie
        assert select_method(
            QuantumCircuit(2), backend.target, None
        ) == "density_matrix"


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
        assert "trajectory" in message
        assert "statevector" in message

    def test_statevector_budget_enforced(self):
        target = Target(30, CouplingMap.from_line(30))
        qc = line_circuit(30)
        with pytest.raises(BackendError, match="statevector"):
            execute_circuit(qc, target, shots=1, method="statevector")

    def test_error_lists_each_method_that_fits(self, backend):
        # noiseless GHZ: every other method supports it within budget
        with pytest.raises(BackendError) as excinfo:
            execute_circuit(
                line_circuit(15), backend.target, None, shots=1,
                method="density_matrix",
            )
        message = str(excinfo.value)
        assert message.endswith(
            "; methods within budget: statevector (<= 26 qubits), "
            "trajectory (<= 26 qubits), stabilizer (<= 256 qubits)"
        )

    def test_error_alternatives_respect_capability(self):
        # a 30q non-Clifford noiseless circuit pinned to statevector:
        # the tableau cannot run it, so the error must not advertise it
        circuit = QuantumCircuit(30, 30)
        for q in range(30):
            circuit.rz(0.3, q)
            circuit.sx(q)
            circuit.measure(q, q)
        with pytest.raises(BackendError) as excinfo:
            execute_circuit(
                circuit, Target(30, CouplingMap.from_line(30)), None,
                shots=1, method="statevector",
            )
        message = str(excinfo.value)
        assert "30 active qubits exceed" in message
        assert "stabilizer" not in message


def depolarizing_noise(num_qubits):
    """Pauli-mixture gate errors only."""
    noise = NoiseModel(num_qubits)
    noise.add_depolarizing_error("cx", 0.02, 2)
    noise.add_depolarizing_error("h", 0.002, 1)
    return noise


ALL_METHODS = ["density_matrix", "statevector", "trajectory", "stabilizer"]


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
            ("trajectory", 26),
            ("stabilizer", 256),
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
                "statevector (<= 26 qubits), trajectory (<= 26 qubits), "
                "stabilizer (<= 256 qubits)",
            ),
            (
                "statevector", 26, "pure states scale 2^n",
                "stabilizer (<= 256 qubits)",
            ),
            (
                "trajectory", 26, "each trajectory holds a 2^n statevector",
                "stabilizer (<= 256 qubits)",
            ),
            ("stabilizer", 256, "polynomial in qubits", None),
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
            (False, None, ["density_matrix", "statevector", "trajectory"]),
            (True, "readout", ALL_METHODS),
            (
                True, "depolarizing",
                ["density_matrix", "trajectory", "stabilizer"],
            ),
            (False, "depolarizing", ["density_matrix", "trajectory"]),
            (True, "relaxation", ["density_matrix", "trajectory"]),
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

    def test_only_trajectory_is_statistical(self):
        assert [
            name for name, entry in _METHODS.items() if entry.statistical
        ] == ["trajectory"]

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

    def test_no_registry_module_remains(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.simulators.registry")
        for module in ("repro.backends", "repro.backends.engine"):
            imported = importlib.import_module(module)
            # no computed module attributes behind METHODS
            assert "__getattr__" not in vars(imported)
            assert not hasattr(imported, "register_method")
            assert not hasattr(imported, "set_method_qubit_budget")

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


class TestTrajectoryMethod:
    def test_split_shots_partition(self):
        assert split_shots(10, 4) == [3, 3, 2, 2]
        assert split_shots(3, 8) == [1, 1, 1, 0, 0, 0, 0, 0]
        assert sum(split_shots(1024, 7)) == 1024
        with pytest.raises(SimulatorError):
            split_shots(8, 0)

    def test_counts_converge_to_density_distribution(self, backend):
        # fixed seeds: deterministic statistical check, not a flaky one
        qc = line_circuit(3)
        shots = 120_000
        dm = execute_circuit(
            qc, backend.target, backend.noise_model, shots=shots, seed=1,
            method="density_matrix",
        )
        traj = execute_circuit(
            qc, backend.target, backend.noise_model, shots=shots, seed=2,
            method="trajectory", trajectories=256,
        )
        p = {k: v / shots for k, v in dm.counts.items()}
        q = {k: v / shots for k, v in traj.counts.items()}
        tv = 0.5 * sum(
            abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q)
        )
        assert tv < 0.05, f"TV(trajectory, density) = {tv:.4f}"

    def test_total_shots_and_duration_preserved(self, backend):
        qc = line_circuit(4)
        dm = execute_circuit(
            qc, backend.target, backend.noise_model, shots=333, seed=4
        )
        traj = execute_circuit(
            qc, backend.target, backend.noise_model, shots=333, seed=4,
            method="trajectory", trajectories=10,
        )
        assert sum(traj.counts.values()) == 333
        assert traj.duration == dm.duration

    def test_breaks_14_qubit_wall_where_density_refuses(self, backend):
        qc = line_circuit(16)
        with pytest.raises(BackendError, match="density_matrix"):
            execute_circuit(
                qc, backend.target, backend.noise_model, shots=16,
                method="density_matrix",
            )
        result = execute_circuit(
            qc, backend.target, backend.noise_model, shots=64, seed=5,
            method="trajectory", trajectories=4,
        )
        assert sum(result.counts.values()) == 64
        assert result.metadata["method"] == "trajectory"

    def test_zero_trajectories_rejected(self, backend):
        with pytest.raises(BackendError, match="trajectories"):
            execute_circuit(
                line_circuit(3), backend.target, backend.noise_model,
                shots=16, method="trajectory", trajectories=0,
            )

class TestServiceIntegration:
    def test_sweepjob_threads_method_and_trajectories(self):
        # a pooled batch hands method and trajectory count to every
        # worker's run
        backend = FakeGuadalupe()
        try:
            result = backend.run(
                [line_circuit(3), line_circuit(4)], shots=64, seed=1,
                jobs=2, method="trajectory", trajectories=7,
            )
        finally:
            backend.close_services()
        assert result.metadata["service"]["shards"] == 2
        assert [
            (e.metadata["method"], e.metadata["trajectories"])
            for e in result.experiments
        ] == [("trajectory", 7)] * 2

    def test_jobs1_vs_jobsN_identical_for_trajectory(self):
        circuits = [line_circuit(10), line_circuit(6)]
        kwargs = dict(
            shots=256, seed=17, method="trajectory", trajectories=8
        )
        reference = FakeGuadalupe().run(circuits, **kwargs)
        backend = FakeGuadalupe()
        try:
            sharded = backend.run(circuits, jobs=2, **kwargs)
            # one circuit runs inline, whatever its method
            single = backend.run(circuits[:1], jobs=2, **kwargs)
        finally:
            backend.close_services()
        assert sharded.metadata["service"]["shards"] == 2
        assert "service" not in single.metadata
        for got, want in zip(sharded.experiments, reference.experiments):
            assert dict(got.counts) == dict(want.counts)
            assert got.metadata == want.metadata
        assert dict(single.experiments[0].counts) == dict(
            reference.experiments[0].counts
        )
