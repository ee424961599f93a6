"""Cross-method equivalence matrix.

One parametrized gauntlet every simulation back-end change must pass:
randomized circuits x {noiseless, relaxation, readout} noise x
{4, 8, 12} qubits, asserting the ``auto`` resolution per cell and
**byte-identity**, at fixed seeds, wherever two paths are exact for the
same distribution:

* density matrix vs statevector when no noise touches the state;
* ``auto`` vs the method it resolves to;
* a parameter sweep through the memo layers (plans, channels, compiled
  density walks) vs the same runs with caching disabled;
* a batch split across pool workers vs direct execution;
* a measurement into reversed classical bits vs the straight one, key
  for key reversed.

Density-matrix executions are capped at 8 qubits: a 12-qubit density
matrix is 4^12 ~ 16.7M amplitudes and would dominate the tier-1 wall
clock for no extra coverage, so the 12-qubit relaxation cells (the only
12-qubit cells that resolve to the density matrix) skip every check that
executes.

:func:`test_auto_is_statevector_exactly_when_supported` checks the
``auto`` rule itself on those widths and noise kinds, plus 16 qubits
(past the density budget), depolarizing gate noise and random Clifford
circuits.
"""

import numpy as np
import pytest

from repro.backends import (
    FakeGuadalupe,
    execute_circuit,
    execute_circuits,
    select_method,
)
from repro.backends.backend import SimulatedBackend
from repro.backends.engine import _CircuitPlan, _supports_statevector
from repro.circuits import QuantumCircuit
from repro.noise import NoiseModel, ReadoutError
from repro.utils.cache import caching_disabled

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


def random_circuit(
    num_qubits: int, seed: int, reverse_clbits: bool = False
) -> QuantumCircuit:
    """A seeded random layered circuit on a line of ``num_qubits``.

    Qubit ``q`` is measured into clbit ``q``, or into clbit
    ``num_qubits - 1 - q`` with ``reverse_clbits`` (the measurements
    keep their order either way).
    """
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
        qc.measure(q, num_qubits - 1 - q if reverse_clbits else q)
    return qc


def make_noise(kind: str, num_qubits: int) -> NoiseModel | None:
    if kind == "noiseless":
        return None
    noise = NoiseModel(num_qubits)
    if kind == "relaxation":
        noise.set_relaxation(80_000.0, 60_000.0, 0.222)
    elif kind == "readout":
        noise.set_readout_error(ReadoutError.uniform(num_qubits, 0.03))
    elif kind == "depolarizing":
        noise.add_depolarizing_error("cx", 0.02, 2)
        for name in ("h", "s", "sdg", "x", "sx", "z"):
            noise.add_depolarizing_error(name, 0.002, 1)
        noise.set_readout_error(ReadoutError.uniform(num_qubits, 0.02))
    else:  # pragma: no cover - parametrization guard
        raise ValueError(kind)
    return noise


def counts_of(result):
    return dict(result.counts)


def skip_past_density_cap(num_qubits: int, noise_kind: str) -> None:
    """Skip a cell whose runs resolve to a density matrix past
    :data:`DENSITY_CAP` (only relaxation touches the state here)."""
    if noise_kind == "relaxation" and num_qubits > DENSITY_CAP:
        pytest.skip("density-matrix cost capped at 8 qubits")


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

    def test_auto_runs_the_resolved_method(
        self, backend, num_qubits, noise_kind, circuit_seed
    ):
        """``auto`` returns exactly what pinning its resolution returns."""
        skip_past_density_cap(num_qubits, noise_kind)
        circuit = random_circuit(num_qubits, circuit_seed)
        noise = make_noise(noise_kind, backend.num_qubits)
        resolved = select_method(circuit, backend.target, noise)
        auto = execute_circuit(
            circuit, backend.target, noise, shots=1024, seed=5
        )
        pinned = execute_circuit(
            circuit, backend.target, noise, shots=1024, seed=5,
            method=resolved,
        )
        assert auto.metadata["method"] == resolved
        assert counts_of(auto) == counts_of(pinned)
        assert auto.duration == pinned.duration
        assert auto.metadata == pinned.metadata

    def test_memoized_sweep_equals_uncached_runs(
        self, backend, num_qubits, noise_kind, circuit_seed
    ):
        """A sweep over one circuit structure (the random angles differ,
        the layout does not) reuses the plan, the channels and the
        compiled density walk, and still returns what fresh runs with
        every cache disabled return."""
        skip_past_density_cap(num_qubits, noise_kind)
        sweep = [
            random_circuit(num_qubits, angles)
            for angles in (circuit_seed, circuit_seed + 2, circuit_seed)
        ]
        seeds = [7, 8, 9]
        batched = execute_circuits(
            sweep, backend.target,
            make_noise(noise_kind, backend.num_qubits),
            shots=512, seeds=seeds,
        )
        with caching_disabled():
            fresh = [
                execute_circuit(
                    circuit, backend.target,
                    make_noise(noise_kind, backend.num_qubits),
                    shots=512, seed=seed,
                )
                for circuit, seed in zip(sweep, seeds)
            ]
        for got, want in zip(batched, fresh):
            assert counts_of(got) == counts_of(want)
            assert got.duration == want.duration
            assert got.metadata == want.metadata

    def test_worker_split_byte_identical(
        self, backend, pooled_backends, num_qubits, noise_kind,
        circuit_seed,
    ):
        """A batch split across pool workers equals direct execution
        circuit for circuit."""
        skip_past_density_cap(num_qubits, noise_kind)
        circuit = random_circuit(num_qubits, circuit_seed)
        noise = make_noise(noise_kind, backend.num_qubits)
        direct = [
            execute_circuit(
                circuit, backend.target, noise, shots=512, seed=seed
            )
            for seed in (3, 4)
        ]
        pooled = pooled_backends(noise_kind).run(
            [circuit, circuit], shots=512, seeds=[3, 4], jobs=2
        )
        assert pooled.metadata["service"]["shards"] == 2
        for got, want in zip(pooled.experiments, direct):
            assert counts_of(got) == counts_of(want)
            assert got.metadata == want.metadata

    def test_reversed_clbits_reverse_every_key(
        self, backend, num_qubits, noise_kind, circuit_seed
    ):
        """Where an outcome lands is the clbit map's business only: the
        same seed draws the same outcomes, each key reversed."""
        skip_past_density_cap(num_qubits, noise_kind)
        noise = make_noise(noise_kind, backend.num_qubits)
        straight, reversed_ = (
            execute_circuit(
                random_circuit(num_qubits, circuit_seed, reverse),
                backend.target, noise, shots=1024, seed=6,
            )
            for reverse in (False, True)
        )
        assert counts_of(reversed_) == {
            key[::-1]: count for key, count in counts_of(straight).items()
        }
        assert reversed_.metadata["clbit_to_qubit"] == {
            num_qubits - 1 - q: q for q in range(num_qubits)
        }
        assert reversed_.duration == straight.duration


#: (method, qubits) cells of the readout check, density capped
READOUT_CELLS = [
    (method, num_qubits)
    for num_qubits in QUBITS
    for method in ("density_matrix", "statevector")
    if method == "statevector" or num_qubits <= DENSITY_CAP
]


@pytest.mark.parametrize("method, num_qubits", READOUT_CELLS)
@pytest.mark.parametrize("circuit_seed", CIRCUIT_SEEDS)
def test_readout_only_noise_is_classical(
    backend, method, num_qubits, circuit_seed
):
    """Under a readout-only model, ``with_readout_error=False`` is the
    noiseless run byte for byte (the model touches nothing else), and
    with the error applied the counts move."""
    circuit = random_circuit(num_qubits, circuit_seed)
    noise = make_noise("readout", backend.num_qubits)
    noiseless = execute_circuit(
        circuit, backend.target, None, shots=2048, seed=4, method=method
    )
    disabled = execute_circuit(
        circuit, backend.target, noise, shots=2048, seed=4, method=method,
        with_readout_error=False,
    )
    applied = execute_circuit(
        circuit, backend.target, noise, shots=2048, seed=4, method=method
    )
    assert counts_of(disabled) == counts_of(noiseless)
    assert disabled.duration == noiseless.duration
    assert counts_of(applied) != counts_of(noiseless)


def random_clifford_circuit(num_qubits: int, seed: int) -> QuantumCircuit:
    """A seeded random layered Clifford circuit on a line."""
    rng = np.random.default_rng(seed)
    names = ["h", "s", "sdg", "x", "sx", "z"]
    qc = QuantumCircuit(num_qubits, num_qubits)
    for layer in range(3):
        for q in range(num_qubits):
            getattr(qc, names[int(rng.integers(len(names)))])(q)
        for q in range(layer % 2, num_qubits - 1, 2):
            qc.cx(q, q + 1)
    for q in range(num_qubits):
        qc.measure(q, q)
    return qc


@pytest.mark.parametrize("clifford", [False, True], ids=["random", "clifford"])
@pytest.mark.parametrize("noise_kind", [*NOISES, "depolarizing"])
@pytest.mark.parametrize("num_qubits", [*QUBITS, 16])
def test_auto_is_statevector_exactly_when_supported(
    backend, num_qubits, noise_kind, clifford
):
    """``auto`` resolves to ``statevector`` when its capability predicate
    accepts the circuit and to ``density_matrix`` otherwise, whatever the
    width and whether the circuit is Clifford (nothing is simulated)."""
    circuit = (random_clifford_circuit if clifford else random_circuit)(
        num_qubits, 0
    )
    noise = make_noise(noise_kind, backend.num_qubits)
    plan = _CircuitPlan(circuit, backend.target)
    expected = (
        "statevector" if _supports_statevector(plan, noise)
        else "density_matrix"
    )
    assert select_method(circuit, backend.target, noise) == expected
