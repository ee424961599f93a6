"""Cross-method equivalence matrix.

One parametrized gauntlet every simulation back-end change must pass:
randomized circuits x {noiseless, relaxation, readout} noise x
{4, 8, 12} qubits, asserting

* **byte-identity** where methods are exact for the same distribution —
  density matrix vs statevector when no noise touches the state, and
  batched vs sequential trajectory execution (every batch size, and a
  batch split across pool workers) at fixed seeds;
* **TV-bounded agreement** where the relation is statistical —
  trajectory sampling against the exact density-matrix distribution.

Density-matrix executions are capped at 8 qubits: a 12-qubit density
matrix is 4^12 ~ 16.7M amplitudes and would dominate the tier-1 wall
clock for no extra coverage — the 12-qubit cells exercise the 2^n
methods, which is exactly the regime the trajectory back-end exists for.

``TestStabilizerColumn`` adds the tableau back-end's column on its own
circuit family (the random circuits above are deliberately non-Clifford
so the amplitude cells keep exercising generic rotations): Clifford
circuits with depolarizing (Pauli) noise, TV-compared against the exact
density distribution and against trajectory sampling past the density
budget, plus the auto-dispatch crossover points.
"""

import numpy as np
import pytest

from repro.backends import (
    FakeGuadalupe,
    execute_circuit,
    select_method,
)
from repro.circuits import QuantumCircuit
from repro.noise import NoiseModel, ReadoutError
from repro.simulators import total_variation

QUBITS = [4, 8, 12]
NOISES = ["noiseless", "relaxation", "readout"]
CIRCUIT_SEEDS = [0, 1]

#: density-matrix executions stay at or below this size (cost control)
DENSITY_CAP = 8


@pytest.fixture(scope="module")
def backend():
    return FakeGuadalupe()


@pytest.fixture(scope="module")
def pooled_backends(backend):
    """``noise_kind -> backend`` on the same target and device, carrying
    that cell's noise model; each keeps one ``jobs=2`` pool for the
    module."""
    from repro.backends.backend import SimulatedBackend

    built = {}

    def get(noise_kind):
        if noise_kind not in built:
            built[noise_kind] = SimulatedBackend(
                f"matrix_{noise_kind}",
                backend.target,
                make_noise(noise_kind, backend.num_qubits),
                backend.device,
            )
        return built[noise_kind]

    yield get
    for pooled in built.values():
        pooled.close_services()


def random_circuit(num_qubits: int, seed: int) -> QuantumCircuit:
    """A seeded random layered circuit on a line of ``num_qubits``."""
    rng = np.random.default_rng(seed)
    qc = QuantumCircuit(num_qubits, num_qubits)
    for layer in range(3):
        for q in range(num_qubits):
            qc.rz(float(rng.uniform(0, 2 * np.pi)), q)
            qc.sx(q)
        offset = layer % 2
        for q in range(offset, num_qubits - 1, 2):
            qc.cx(q, q + 1)
    for q in range(num_qubits):
        qc.measure(q, q)
    return qc


def make_noise(kind: str, num_qubits: int) -> NoiseModel | None:
    if kind == "noiseless":
        return None
    noise = NoiseModel(num_qubits)
    if kind == "relaxation":
        noise.set_relaxation(80_000.0, 60_000.0, 0.222)
    elif kind == "readout":
        noise.set_readout_error(ReadoutError.uniform(num_qubits, 0.03))
    else:  # pragma: no cover - parametrization guard
        raise ValueError(kind)
    return noise


def counts_of(result):
    return dict(result.counts)


@pytest.mark.parametrize("noise_kind", NOISES)
@pytest.mark.parametrize("num_qubits", QUBITS)
@pytest.mark.parametrize("circuit_seed", CIRCUIT_SEEDS)
class TestMethodMatrix:
    def test_auto_resolution(
        self, backend, num_qubits, noise_kind, circuit_seed
    ):
        """The auto policy lands on the documented method per cell."""
        circuit = random_circuit(num_qubits, circuit_seed)
        noise = make_noise(noise_kind, backend.num_qubits)
        resolved = select_method(circuit, backend.target, noise)
        if noise_kind == "relaxation":
            assert resolved == "density_matrix"
        else:
            # readout assignment error is classical: still pure-state
            assert resolved == "statevector"

    def test_trajectory_batched_byte_identical_to_sequential(
        self, backend, num_qubits, noise_kind, circuit_seed
    ):
        """Every batch size reproduces the per-trajectory loop exactly."""
        circuit = random_circuit(num_qubits, circuit_seed)
        noise = make_noise(noise_kind, backend.num_qubits)
        reference = execute_circuit(
            circuit, backend.target, noise, shots=512, seed=7,
            method="trajectory", trajectories=12, trajectory_batch=1,
        )
        for batch in (2, 5, 12, None):
            run = execute_circuit(
                circuit, backend.target, noise, shots=512, seed=7,
                method="trajectory", trajectories=12,
                trajectory_batch=batch,
            )
            assert counts_of(run) == counts_of(reference), (
                f"trajectory_batch={batch} diverged from the sequential "
                f"path at {num_qubits}q/{noise_kind}"
            )
            assert run.duration == reference.duration

    def test_trajectory_worker_split_byte_identical(
        self, backend, pooled_backends, num_qubits, noise_kind,
        circuit_seed,
    ):
        """A batch split across pool workers, at any batch size, equals
        direct execution circuit for circuit."""
        circuit = random_circuit(num_qubits, circuit_seed)
        noise = make_noise(noise_kind, backend.num_qubits)
        direct = [
            execute_circuit(
                circuit, backend.target, noise, shots=512, seed=seed,
                method="trajectory", trajectories=12,
            )
            for seed in (3, 4)
        ]
        for batch in (2, None):
            pooled = pooled_backends(noise_kind).run(
                [circuit, circuit], shots=512, seeds=[3, 4], jobs=2,
                method="trajectory", trajectories=12,
                trajectory_batch=batch,
            )
            assert pooled.metadata["service"]["shards"] == 2
            for got, want in zip(pooled.experiments, direct):
                assert counts_of(got) == counts_of(want)
                assert got.metadata == want.metadata

    def test_exact_methods_byte_identical(
        self, backend, num_qubits, noise_kind, circuit_seed
    ):
        """Statevector == density matrix when no noise touches the state."""
        if noise_kind == "relaxation":
            pytest.skip("relaxation touches the state: not an exact pair")
        if num_qubits > DENSITY_CAP:
            pytest.skip("density-matrix cost capped at 8 qubits")
        circuit = random_circuit(num_qubits, circuit_seed)
        noise = make_noise(noise_kind, backend.num_qubits)
        sv = execute_circuit(
            circuit, backend.target, noise, shots=2048, seed=5,
            method="statevector",
        )
        dm = execute_circuit(
            circuit, backend.target, noise, shots=2048, seed=5,
            method="density_matrix",
        )
        assert counts_of(sv) == counts_of(dm)
        assert sv.duration == dm.duration

    def test_trajectory_tv_bounded_against_density(
        self, backend, num_qubits, noise_kind, circuit_seed
    ):
        """Trajectory sampling converges to the exact noisy distribution."""
        if noise_kind != "relaxation":
            pytest.skip("statistical check targets state-touching noise")
        if num_qubits > DENSITY_CAP:
            pytest.skip("density-matrix cost capped at 8 qubits")
        if circuit_seed != CIRCUIT_SEEDS[0]:
            pytest.skip("one statistical cell per size keeps tier-1 fast")
        circuit = random_circuit(num_qubits, circuit_seed)
        noise = make_noise(noise_kind, backend.num_qubits)
        shots = 60_000
        dm = execute_circuit(
            circuit, backend.target, noise, shots=shots, seed=1,
            method="density_matrix",
        )
        traj = execute_circuit(
            circuit, backend.target, noise, shots=shots, seed=2,
            method="trajectory", trajectories=256,
        )
        tv = total_variation(counts_of(dm), counts_of(traj))
        # fixed seeds: a deterministic statistical check, not a flaky one
        bound = 0.06 if num_qubits <= 4 else 0.15
        assert tv < bound, (
            f"TV(trajectory, density) = {tv:.4f} at {num_qubits}q"
        )


# ---------------------------------------------------------------------------
# the stabilizer column
# ---------------------------------------------------------------------------

def random_clifford_circuit(
    num_qubits: int, seed: int, measured: int | None = None
) -> QuantumCircuit:
    """A seeded random layered Clifford circuit on a line."""
    rng = np.random.default_rng(seed)
    names = ["h", "s", "sdg", "x", "sx", "z"]
    qc = QuantumCircuit(
        num_qubits, num_qubits if measured is None else measured
    )
    for layer in range(3):
        for q in range(num_qubits):
            getattr(qc, names[int(rng.integers(len(names)))])(q)
        for q in range(layer % 2, num_qubits - 1, 2):
            qc.cx(q, q + 1)
    for c in range(qc.num_clbits):
        qc.measure(c, c)
    return qc


def pauli_noise(num_qubits: int) -> NoiseModel:
    noise = NoiseModel(num_qubits)
    noise.add_depolarizing_error("cx", 0.02, 2)
    for name in ("h", "s", "sdg", "x", "sx", "z"):
        noise.add_depolarizing_error(name, 0.002, 1)
    noise.set_readout_error(ReadoutError.uniform(num_qubits, 0.02))
    return noise


class TestStabilizerColumn:
    def test_auto_dispatch_crossovers(self, backend):
        """Clifford + Pauli noise: density below ~13 qubits, tableau
        past it (and past the 14-qubit density budget outright)."""
        noise = pauli_noise(backend.num_qubits)
        for num_qubits, expected in (
            (4, "density_matrix"),
            (8, "density_matrix"),
            (13, "stabilizer"),
            (16, "stabilizer"),
        ):
            circuit = random_clifford_circuit(num_qubits, 0)
            assert (
                select_method(circuit, backend.target, noise) == expected
            ), f"{num_qubits}q resolved unexpectedly"

    @pytest.mark.parametrize("num_qubits", [4, 8])
    def test_stabilizer_tv_bounded_against_density(
        self, backend, num_qubits
    ):
        """Per-shot tableau sampling vs the exact noisy distribution."""
        circuit = random_clifford_circuit(num_qubits, 0)
        noise = pauli_noise(backend.num_qubits)
        shots = 8192
        dm = execute_circuit(
            circuit, backend.target, noise, shots=shots, seed=1,
            method="density_matrix",
        )
        st = execute_circuit(
            circuit, backend.target, noise, shots=shots, seed=2,
            method="stabilizer",
        )
        tv = total_variation(counts_of(dm), counts_of(st))
        # fixed seeds: a deterministic statistical check, not a flaky one
        bound = 0.06 if num_qubits <= 4 else 0.15
        assert tv < bound, (
            f"TV(stabilizer, density) = {tv:.4f} at {num_qubits}q"
        )

    def test_stabilizer_tv_bounded_against_trajectory_12q(self, backend):
        """Past the density cost crossover: tableau vs trajectory."""
        circuit = random_clifford_circuit(12, 1, measured=5)
        noise = pauli_noise(backend.num_qubits)
        shots = 2048
        st = execute_circuit(
            circuit, backend.target, noise, shots=shots, seed=1,
            method="stabilizer",
        )
        traj = execute_circuit(
            circuit, backend.target, noise, shots=shots, seed=2,
            method="trajectory", trajectories=32,
        )
        tv = total_variation(counts_of(st), counts_of(traj))
        assert tv < 0.15, f"TV(stabilizer, trajectory) = {tv:.4f}"


# ---------------------------------------------------------------------------
# the stabilizer shot-batch column
# ---------------------------------------------------------------------------

def wide_target(num_qubits: int):
    from repro.backends import Target
    from repro.transpiler import CouplingMap

    return Target(num_qubits, CouplingMap.from_line(num_qubits))


def readout_only_noise(num_qubits: int) -> NoiseModel:
    noise = NoiseModel(num_qubits)
    noise.set_readout_error(ReadoutError.uniform(num_qubits, 0.03))
    return noise


class TestStabilizerShotBatch:
    """``stabilizer_shot_batch`` is a perf knob, not a sampling knob.

    The packed kernel must return *byte-identical* counts at every
    batch size — including ``1``, the sequential per-shot reference —
    on each flavour of stochastic program: Pauli noise (channel draws),
    noiseless-but-wide (random-measurement draws only; 28 measured
    qubits overflow the dense-marginal path), and readout-only-wide
    (readout flip draws).  Splitting a batch across pool workers must
    not perturb counts either.
    """

    BATCHES = [1, 7, 512]  # sequential, ragged mid-size, one round

    def _counts(self, circuit, target, noise, batch, seed=7, shots=512):
        return counts_of(
            execute_circuit(
                circuit, target, noise, shots=shots, seed=seed,
                method="stabilizer", stabilizer_shot_batch=batch,
            )
        )

    def _assert_batches_identical(self, circuit, target, noise):
        reference = self._counts(circuit, target, noise, batch=None)
        assert sum(reference.values()) == 512
        for batch in self.BATCHES:
            assert (
                self._counts(circuit, target, noise, batch) == reference
            ), f"shot_batch={batch} diverged from the default kernel"

    def test_pauli_noise_batch_identity(self, backend):
        self._assert_batches_identical(
            random_clifford_circuit(14, 3, measured=6),
            backend.target,
            pauli_noise(backend.num_qubits),
        )

    def test_noiseless_wide_batch_identity(self):
        # 28 measured qubits: past the dense-marginal cap, so the only
        # randomness is the per-shot random-measurement coin flips
        self._assert_batches_identical(
            random_clifford_circuit(28, 5), wide_target(28), None
        )

    def test_readout_only_wide_batch_identity(self):
        self._assert_batches_identical(
            random_clifford_circuit(28, 6),
            wide_target(28),
            readout_only_noise(28),
        )

    def test_worker_split_identity(self):
        """jobs=2 through the worker pool == direct execution.

        Two copies of one circuit exercise the worker split; the knob
        rides along to the workers.
        """
        from repro.backends.backend import SimulatedBackend
        from repro.hamiltonian.system import DeviceModel

        target = wide_target(16)
        noise = pauli_noise(16)
        circuit = random_clifford_circuit(16, 9, measured=6)
        direct = self._counts(circuit, target, noise, batch=None, seed=5)
        device = DeviceModel.uniform(16, coupling_map=target.coupling.edges)
        backend = SimulatedBackend("stab_batch_split", target, noise, device)
        try:
            result = backend.run(
                [circuit, circuit],
                shots=512,
                seeds=[5, 5],
                jobs=2,
                method="stabilizer",
                stabilizer_shot_batch=7,
            )
        finally:
            backend.close_services()
        assert result.metadata["service"]["workers"] == 2
        for experiment in result.experiments:
            assert counts_of(experiment) == direct
