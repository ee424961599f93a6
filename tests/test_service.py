"""Tests for the worker pool behind ``SimulatedBackend.run(jobs > 1)``.

The load-bearing guarantee is *determinism under sharding*: for fixed
seeds, ``jobs=1`` and ``jobs=N`` give byte-identical counts, energies,
trainings and duration searches.  The rest checks that failures stay
loud: a worker's exception reaches the caller with its type, a dead
worker raises ``BackendError`` and the next batch starts a fresh pool,
and ``close_services()`` joins every worker.
"""

import multiprocessing
import os
import pickle
import signal
from contextlib import ExitStack
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import FakeGuadalupe, SimulatedBackend
from repro.circuits import QuantumCircuit
from repro.circuits.gates import PulseGate
from repro.core import (
    ExecutionPipeline,
    GateLevelModel,
    HybridGatePulseModel,
    PulseLevelModel,
    binary_search_mixer_duration,
    train_model,
)
from repro.exceptions import BackendError, ReproError, SimulatorError
from repro.problems import MaxCutProblem, benchmark_graph
from repro.service import ExecutionService, shard_bounds
from repro.telemetry import (
    collect_trace,
    iter_records,
    metrics_snapshot,
    set_record_sink,
)
from repro.utils.cache import cache_stats_totals
from repro.utils.rng import derive_seed
from repro.vqa import ExpectedCutCost
from repro.vqa.optimizers import SPSA

SHOTS = 128


@pytest.fixture(scope="module")
def backend():
    backend = FakeGuadalupe()
    yield backend
    backend.close_services()


@pytest.fixture(scope="module")
def problem():
    return MaxCutProblem(benchmark_graph(1))


@pytest.fixture(scope="module")
def sweep_circuits(backend, problem):
    """Six routed hybrid-QAOA circuits (pulse gates exercise the
    unitary-provider path through pickling)."""
    model = HybridGatePulseModel(problem, backend.device)
    base = model.initial_point(3)
    pipeline = ExecutionPipeline(
        backend=backend, cost=ExpectedCutCost(problem), shots=SHOTS
    )
    return [
        pipeline.prepare(
            model.build_circuit(np.concatenate([[gamma], base[1:]]))
        )
        for gamma in np.linspace(0.3, 1.5, 6)
    ]


def counts_of(experiments):
    return [dict(e.counts) for e in experiments]


def ghz(qubits: int) -> QuantumCircuit:
    circuit = QuantumCircuit(qubits, name=f"ghz{qubits}")
    circuit.h(0)
    for qubit in range(qubits - 1):
        circuit.cx(qubit, qubit + 1)
    circuit.measure_all()
    return circuit


def executions():
    """The parent's ``engine.executions`` total over every method."""
    counters = metrics_snapshot()["counters"]
    return sum(
        value for key, value in counters.items()
        if key.startswith("engine.executions")
    )


def pool_processes(backend, jobs):
    pool = backend.execution_service(jobs)._executor
    return list(pool._processes.values())


def pickled(experiments):
    return [pickle.dumps(e) for e in experiments]


def outcome(backend, circuits, **kwargs):
    """A run's pickled experiments, or the (type, message) it raised."""
    try:
        result = backend.run(circuits, **kwargs)
    except ReproError as exc:
        return type(exc), str(exc)
    return pickled(result.experiments)


class AttemptLogBackend(SimulatedBackend):
    """A ``FakeGuadalupe`` that appends ``pid name shots`` to a file for
    every circuit it is asked to run, so a test can count what each
    worker attempted (the file outlives a failing shard)."""

    def __init__(self, path):
        self.__dict__.update(FakeGuadalupe().__dict__)
        self.log_path = str(path)

    def run(self, circuits, *args, **kwargs):
        batch = (
            [circuits] if isinstance(circuits, QuantumCircuit) else circuits
        )
        with open(self.log_path, "a") as log:
            for circuit in batch:
                log.write(
                    f"{os.getpid()} {circuit.name} {kwargs.get('shots')}\n"
                )
        return super().run(circuits, *args, **kwargs)

    def worker_runs(self):
        """Names of the circuits workers ran, warm-ups (one shot) aside."""
        runs = []
        with open(self.log_path) as log:
            for line in log:
                pid, name, shots = line.split()
                if int(pid) != os.getpid() and shots != "1":
                    runs.append(name)
        return runs


# ---------------------------------------------------------------------------
# shard plan
# ---------------------------------------------------------------------------

class TestShardPlanner:
    def test_covers_all_indices_contiguously(self):
        shards = shard_bounds(23, 4)
        assert shards == [(0, 6), (6, 12), (12, 18), (18, 23)]

    def test_balanced_sizes(self):
        sizes = [stop - start for start, stop in shard_bounds(10, 4)]
        assert sizes == [3, 3, 2, 2]

    def test_never_more_shards_than_jobs(self):
        assert len(shard_bounds(3, 8)) == 3
        assert len(shard_bounds(100, 8)) == 8

    def test_more_workers_than_jobs_one_job_per_shard(self):
        # the paper's pooled batches: two circuits on two workers
        assert shard_bounds(2, 2) == [(0, 1), (1, 2)]
        assert shard_bounds(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_single_job(self):
        assert shard_bounds(1, 4) == [(0, 1)]
        assert shard_bounds(5, 1) == [(0, 5)]

    def test_min_shard_size(self):
        # no shard runs fewer than count // workers circuits
        for count, workers in ((100, 4), (10, 3), (7, 7), (9, 2), (5, 8)):
            sizes = [b - a for a, b in shard_bounds(count, workers)]
            assert min(sizes) == max(count // workers, 1)
            assert max(sizes) == -(-count // min(workers, count))

    def test_worker_floor_beats_min_shard_size(self):
        # every worker gets a shard once there are as many circuits,
        # even where that leaves shards of a single circuit
        shards = shard_bounds(10, 8)
        assert len(shards) == 8
        assert [b - a for a, b in shards] == [2, 2, 1, 1, 1, 1, 1, 1]

    def test_empty_and_invalid(self):
        assert shard_bounds(0, 4) == []
        for count, workers in ((4, 0), (4, -1), (-1, 2)):
            with pytest.raises(BackendError):
                shard_bounds(count, workers)

    @settings(max_examples=200, deadline=None)
    @given(count=st.integers(0, 200), workers=st.integers(1, 16))
    def test_property_contiguous_balanced_cover(self, count, workers):
        shards = shard_bounds(count, workers)
        # every index exactly once, in order, no empty shard
        flat = [i for start, stop in shards for i in range(start, stop)]
        assert flat == list(range(count))
        assert len(shards) == min(workers, count)
        sizes = [stop - start for start, stop in shards]
        assert all(sizes)
        assert sizes == sorted(sizes, reverse=True)
        if sizes:
            assert sizes[0] - sizes[-1] <= 1


# ---------------------------------------------------------------------------
# determinism under sharding
# ---------------------------------------------------------------------------

class TestShardingDeterminism:
    def test_counts_identical_jobs1_vs_jobs4(
        self, backend, sweep_circuits
    ):
        seeds = list(range(len(sweep_circuits)))
        serial = backend.run(sweep_circuits, shots=SHOTS, seeds=seeds)
        sharded = backend.run(
            sweep_circuits, shots=SHOTS, seeds=seeds, jobs=4
        )
        assert counts_of(serial.experiments) == counts_of(
            sharded.experiments
        )
        durations = [e.duration for e in serial.experiments]
        assert [e.duration for e in sharded.experiments] == durations
        meta = sharded.metadata["service"]
        assert meta["circuits"] == len(sweep_circuits)
        assert (meta["workers"], meta["shards"]) == (4, 4)
        assert "service" not in serial.metadata
        backend.close_services()

    def test_modified_backend_identical_across_jobs(self):
        # in-place customizations must survive the process boundary:
        # workers receive a pickle of the live backend, never a stock
        # rebuild by name
        modified = FakeGuadalupe()
        modified.noise_model.pulse_jitter_local = 0.08
        problem = MaxCutProblem(benchmark_graph(1))
        model = HybridGatePulseModel(problem, modified.device)
        base = model.initial_point(3)
        pipeline = ExecutionPipeline(
            backend=modified,
            cost=ExpectedCutCost(problem),
            shots=SHOTS,
        )
        circuits = [
            pipeline.prepare(
                model.build_circuit(np.concatenate([[g], base[1:]]))
            )
            for g in np.linspace(0.4, 1.0, 4)
        ]
        seeds = list(range(4))
        serial = modified.run(circuits, shots=SHOTS, seeds=seeds)
        sharded = modified.run(
            circuits, shots=SHOTS, seeds=seeds, jobs=2
        )
        assert counts_of(serial.experiments) == counts_of(
            sharded.experiments
        )
        modified.close_services()

    def test_energies_identical_through_pipeline(
        self, backend, problem
    ):
        model = GateLevelModel(problem)
        base = model.initial_point(5)
        circuits = [
            model.build_circuit(
                np.concatenate([[gamma], base[1:]])
            )
            for gamma in np.linspace(0.2, 1.2, 6)
        ]
        seeds = [derive_seed(9, "sweep", i) for i in range(6)]

        def run(jobs):
            pipeline = ExecutionPipeline(
                backend=backend,
                cost=ExpectedCutCost(problem),
                shots=SHOTS,
                jobs=jobs,
            )
            return pipeline.evaluate_many(circuits, seeds=seeds)

        serial = run(1)
        sharded = run(2)
        assert [v for v, _ in serial] == [v for v, _ in sharded]
        assert [i["raw_counts"] for _, i in serial] == [
            i["raw_counts"] for _, i in sharded
        ]
        backend.close_services()

    def test_spsa_training_identical_across_jobs(
        self, backend, problem
    ):
        def train(jobs):
            pipeline = ExecutionPipeline(
                backend=backend,
                cost=ExpectedCutCost(problem),
                shots=SHOTS,
                jobs=jobs,
            )
            return train_model(
                GateLevelModel(problem),
                pipeline,
                SPSA(maxiter=3, seed=11),
                seed=23,
            )

        serial = train(1)
        sharded = train(2)
        assert serial.best_value == sharded.best_value
        np.testing.assert_array_equal(
            serial.best_parameters, sharded.best_parameters
        )
        assert serial.trace.values == sharded.trace.values
        backend.close_services()

    def test_duration_search_identical_across_jobs(
        self, backend, problem
    ):
        model = HybridGatePulseModel(problem, backend.device)
        parameters = np.asarray(model.initial_point(4), dtype=float)
        pipeline = ExecutionPipeline(
            backend=backend,
            cost=ExpectedCutCost(problem),
            shots=SHOTS,
        )
        serial = binary_search_mixer_duration(
            model, pipeline, parameters, seed=31
        )
        sharded = binary_search_mixer_duration(
            model, replace(pipeline, jobs=3), parameters, seed=31
        )
        assert serial.duration == sharded.duration
        assert serial.evaluations == sharded.evaluations
        assert serial.infeasible == sharded.infeasible
        backend.close_services()

    @pytest.mark.parametrize("count", [2, 3, 5])
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_counts_identical_at_every_width(
        self, backend, sweep_circuits, jobs, count
    ):
        circuits = sweep_circuits[:count]
        serial = backend.run(circuits, shots=SHOTS, seed=count)
        with collect_trace("width") as trace:
            sharded = backend.run(
                circuits, shots=SHOTS, seed=count, jobs=jobs
            )
        assert pickled(sharded.experiments) == pickled(serial.experiments)
        sizes = [b - a for a, b in shard_bounds(count, jobs)]
        assert len(sizes) == min(jobs, count)
        assert [
            d.attributes["circuits"] for d in trace.find("shard.dispatch")
        ] == sizes

    @pytest.mark.parametrize("name", ["gate", "hybrid", "pulse"])
    def test_evaluate_many_identical_for_every_model(
        self, backend, problem, name
    ):
        model = {
            "gate": lambda: GateLevelModel(problem),
            "hybrid": lambda: HybridGatePulseModel(problem, backend.device),
            "pulse": lambda: PulseLevelModel(problem, backend),
        }[name]()
        circuits = [
            model.build_circuit(model.initial_point(index))
            for index in range(3)
        ]
        seeds = [derive_seed(5, "many", i) for i in range(3)]

        def scores(jobs):
            pipeline = ExecutionPipeline(
                backend=backend,
                cost=ExpectedCutCost(problem),
                shots=SHOTS,
                jobs=jobs,
            )
            return pipeline.evaluate_many(circuits, seeds=seeds)

        serial, sharded = scores(1), scores(2)
        assert [v for v, _ in serial] == [v for v, _ in sharded]
        assert [i["raw_counts"] for _, i in serial] == [
            i["raw_counts"] for _, i in sharded
        ]


# ---------------------------------------------------------------------------
# configuration and the backend's pool cache
# ---------------------------------------------------------------------------

class TestJobSeeds:
    def test_sweep_seed_derivation_rule(self, backend, sweep_circuits):
        # backend.run(seed=s) gives circuit i the shot seed
        # derive_seed(s, "run", i) before the batch is split
        pooled = backend.run(sweep_circuits, shots=SHOTS, seed=17, jobs=2)
        one_by_one = [
            backend.run(
                circuit, shots=SHOTS, seeds=[derive_seed(17, "run", index)]
            ).experiments[0]
            for index, circuit in enumerate(sweep_circuits)
        ]
        assert pickled(pooled.experiments) == pickled(one_by_one)

    def test_explicit_seeds_override(self, backend, sweep_circuits):
        seeds = list(range(100, 100 + len(sweep_circuits)))
        overridden = backend.run(
            sweep_circuits, shots=SHOTS, seed=17, seeds=seeds, jobs=2
        )
        explicit = backend.run(sweep_circuits, shots=SHOTS, seeds=seeds)
        derived = backend.run(sweep_circuits, shots=SHOTS, seed=17)
        assert counts_of(overridden.experiments) == counts_of(
            explicit.experiments
        )
        assert counts_of(overridden.experiments) != counts_of(
            derived.experiments
        )

    def test_unseeded_stays_unseeded(
        self, backend, sweep_circuits, monkeypatch
    ):
        # without seed or seeds the pool is handed None for every
        # circuit, never a seed made up on the way
        handed = []
        run_batch = ExecutionService.run_batch

        def spy(self, circuits, seeds, **options):
            handed.append(list(seeds))
            return run_batch(self, circuits, seeds, **options)

        monkeypatch.setattr(ExecutionService, "run_batch", spy)
        result = backend.run(sweep_circuits[:3], shots=SHOTS, jobs=2)
        assert handed == [[None, None, None]]
        assert [sum(e.counts.values()) for e in result.experiments] == [
            SHOTS
        ] * 3

    def test_seed_count_mismatch(self, backend):
        circuits = [ghz(2)] * 3
        with pytest.raises(BackendError, match="one seed per circuit"):
            backend.execution_service(2).run_batch(
                circuits, [1, 2], shots=SHOTS
            )
        with pytest.raises(BackendError, match="2 seeds for 3 circuits"):
            backend.run(circuits, shots=SHOTS, seeds=[1, 2])


@pytest.mark.slow
class TestFuturesAPI:
    """How callers reach the pool: ``backend.run(..., jobs=N)``, one
    cached service per worker count, and a final ``shutdown``."""

    def test_backend_reuses_one_service_per_worker_count(
        self, backend, sweep_circuits
    ):
        # an optimizer loop calls run(jobs=2) per evaluation; each call
        # must land on the same pool instead of starting a new one
        try:
            backend.run(sweep_circuits[:2], shots=SHOTS, seed=1, jobs=2)
            service = backend.execution_service(2)
            pool = service._executor
            backend.run(sweep_circuits[:2], shots=SHOTS, seed=2, jobs=2)
            assert backend.execution_service(2) is service
            assert service._executor is pool
        finally:
            backend.close_services()

    def test_backpressure_bounds_in_flight_jobs(self, backend, monkeypatch):
        # a batch queues one pool task per shard, so never more than
        # ``jobs`` are in flight however long the batch is
        backend.run([ghz(2), ghz(2)], shots=SHOTS, seed=1, jobs=2)
        pool = backend.execution_service(2)._executor
        queued = []
        submit = pool.submit

        def counting_submit(fn, circuits, *args, **kwargs):
            queued.append(len(circuits))
            return submit(fn, circuits, *args, **kwargs)

        monkeypatch.setattr(pool, "submit", counting_submit)
        circuits = [ghz(2 + index % 3) for index in range(9)]
        result = backend.run(circuits, shots=SHOTS, seed=3, jobs=2)
        assert queued == [5, 4]
        assert pickled(result.experiments) == pickled(
            backend.run(circuits, shots=SHOTS, seed=3).experiments
        )

    def test_map_respects_backpressure_bound(
        self, backend, problem, monkeypatch
    ):
        # the pipeline's batch map (evaluate_many, the PO search's path)
        # is one pooled batch: at most ``jobs`` tasks in flight
        model = GateLevelModel(problem)
        circuits = [
            model.build_circuit(model.initial_point(index))
            for index in range(5)
        ]
        pipeline = ExecutionPipeline(
            backend=backend, cost=ExpectedCutCost(problem), shots=SHOTS,
            jobs=2,
        )
        pipeline.evaluate_many(circuits[:2], seeds=[1, 2])  # start the pool
        pool = backend.execution_service(2)._executor
        queued = []
        submit = pool.submit

        def counting_submit(fn, circuits, *args, **kwargs):
            queued.append(len(circuits))
            return submit(fn, circuits, *args, **kwargs)

        monkeypatch.setattr(pool, "submit", counting_submit)
        scored = pipeline.evaluate_many(circuits, seeds=list(range(5)))
        assert queued == [3, 2]
        assert [value for value, _ in scored] == [
            value for value, _ in replace(pipeline, jobs=1).evaluate_many(
                circuits, seeds=list(range(5))
            )
        ]

    def test_shutdown_rejects_new_work(self, sweep_circuits):
        fresh = FakeGuadalupe()
        circuits = sweep_circuits[:2]
        fresh.run(circuits, shots=SHOTS, seed=1, jobs=2)
        service = fresh.execution_service(2)
        workers = pool_processes(fresh, 2)
        service.shutdown()
        service.shutdown()  # idempotent
        assert not any(process.is_alive() for process in workers)
        with pytest.raises(BackendError, match="shut down"):
            service.run_batch(circuits, [1, 2], shots=SHOTS)
        assert service._executor is None  # no pool was restarted
        # the backend replaces its shut-down service with a fresh one
        try:
            again = fresh.run(circuits, shots=SHOTS, seed=1, jobs=2)
            assert fresh.execution_service(2) is not service
        finally:
            fresh.close_services()
        assert counts_of(again.experiments) == counts_of(
            fresh.run(circuits, shots=SHOTS, seed=1).experiments
        )

    def test_inline_fallback_matches_pool(self, backend, sweep_circuits):
        # a lone circuit, or any batch at jobs=1, runs inline in this
        # process; either way the counts equal the pooled batch's
        circuits = sweep_circuits[:3]
        seeds = [derive_seed(29, "run", index) for index in range(3)]
        pooled = backend.run(circuits, shots=SHOTS, seeds=seeds, jobs=2)
        inline = backend.run(circuits, shots=SHOTS, seeds=seeds)
        with collect_trace("inline") as trace:
            lone = [
                backend.run(circuit, shots=SHOTS, seeds=[seed], jobs=2)
                for circuit, seed in zip(circuits, seeds)
            ]
        assert trace.find("shard.dispatch") == []
        assert all("service" not in result.metadata for result in lone)
        assert "service" not in inline.metadata
        assert pickled(inline.experiments) == pickled(pooled.experiments)
        assert pickled(pooled.experiments) == pickled(
            result.experiments[0] for result in lone
        )


class TestServiceConfiguration:
    def test_constructor_validation(self, backend):
        for jobs in (0, -3):
            with pytest.raises(BackendError, match="jobs must be >= 1"):
                ExecutionService(backend, jobs)
        with pytest.raises(TypeError):
            ExecutionService(backend, 2, retries=3)

    @pytest.mark.parametrize("jobs", [0, -1, -3])
    @pytest.mark.parametrize(
        "entry",
        ["run_batch", "run_single", "pipeline", "execution_service"],
    )
    def test_jobs_below_one_rejected_everywhere(
        self, backend, problem, entry, jobs
    ):
        calls = {
            "run_batch": lambda: backend.run(
                [ghz(2), ghz(2)], shots=SHOTS, seed=1, jobs=jobs
            ),
            "run_single": lambda: backend.run(
                ghz(2), shots=SHOTS, seed=1, jobs=jobs
            ),
            "pipeline": lambda: ExecutionPipeline(
                backend=backend, cost=ExpectedCutCost(problem), jobs=jobs
            ),
            "execution_service": lambda: backend.execution_service(jobs),
        }
        with pytest.raises(BackendError, match="jobs must be >= 1"):
            calls[entry]()
        assert jobs not in backend._services

    def test_backend_service_takes_only_jobs(self, backend, tmp_path):
        # options would be silently ignored by a service cached under
        # the same worker count
        with pytest.raises(TypeError):
            backend.execution_service(2, store=str(tmp_path))

    def test_backend_services_keyed_by_worker_count(self, backend):
        two = backend.execution_service(2)
        three = backend.execution_service(3)
        try:
            assert two is not three
            assert (two.workers, three.workers) == (2, 3)
            assert backend.execution_service(3) is three
        finally:
            backend.close_services()
        # closing shuts the cached services down for good and drops
        # them; the next call builds anew
        assert two.closed and three.closed
        with pytest.raises(BackendError, match="shut down"):
            two.run_batch([ghz(3)], [1], shots=SHOTS)
        fresh = backend.execution_service(2)
        try:
            assert fresh is not two
        finally:
            backend.close_services()

    def test_stats_schema(self, backend, tmp_path):
        # a pooled batch reports itself twice, with the same numbers:
        # Result.metadata["service"] and one ``batch`` record
        sink = tmp_path / "records.jsonl"
        set_record_sink(sink)
        try:
            result = backend.run([ghz(2)] * 5, shots=SHOTS, seed=3, jobs=2)
        finally:
            set_record_sink(None)
        meta = result.metadata["service"]
        assert set(meta) == {"circuits", "workers", "shards", "wall_seconds"}
        (batch,) = [
            row for row in iter_records(sink) if row["kind"] == "batch"
        ]
        assert set(batch) == {
            "kind", "ts", "jobs", "workers", "shards", "wall_seconds",
        }
        assert (batch["jobs"], batch["workers"], batch["shards"]) == (
            meta["circuits"], meta["workers"], meta["shards"]
        ) == (5, 2, 2)
        assert batch["wall_seconds"] == pytest.approx(
            meta["wall_seconds"], abs=1e-3
        )

    def test_backend_with_live_pool_pickles(self, backend, sweep_circuits):
        # workers get the live backend by pickle; one with a running
        # pool pickles without it, and the copy runs the same counts
        circuits = sweep_circuits[:2]
        pooled = backend.run(circuits, shots=SHOTS, seed=7, jobs=2)
        assert backend._services
        copy = pickle.loads(pickle.dumps(backend))
        assert copy._services == {}
        assert len(copy.noise_model.superop_cache) == 0
        assert pickled(
            copy.run(circuits, shots=SHOTS, seed=7).experiments
        ) == pickled(pooled.experiments)

    def test_close_services_joins_every_worker(self):
        fresh = FakeGuadalupe()
        circuits = [ghz(2), ghz(2), ghz(2)]
        fresh.run(circuits, shots=SHOTS, seed=2, jobs=2)
        fresh.run(circuits, shots=SHOTS, seed=2, jobs=3)
        workers = pool_processes(fresh, 2) + pool_processes(fresh, 3)
        assert len(workers) == 5
        fresh.close_services()
        fresh.close_services()  # idempotent
        assert not any(process.is_alive() for process in workers)
        alive = {child.pid for child in multiprocessing.active_children()}
        assert alive.isdisjoint(process.pid for process in workers)


# ---------------------------------------------------------------------------
# pooled batches
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestPooledScheduling:
    def test_mixed_batch_byte_identical_to_inline(self, backend):
        circuits = [ghz(2), ghz(3), ghz(4), ghz(3), ghz(2)]
        for kwargs in (
            dict(method="density_matrix"),
            dict(method="statevector", with_noise=False),
            dict(method="auto"),
        ):
            inline = backend.run(circuits, shots=SHOTS, seed=11, **kwargs)
            pooled = backend.run(
                circuits, shots=SHOTS, seed=11, jobs=2, **kwargs
            )
            assert [pickle.dumps(e) for e in pooled.experiments] == [
                pickle.dumps(e) for e in inline.experiments
            ], kwargs

    def test_scheduler_meta_describes_the_count_plan(self, backend):
        circuits = [ghz(2)] * 5
        result = backend.run(circuits, shots=SHOTS, seed=3, jobs=2)
        meta = result.metadata["service"]
        assert set(meta) == {"circuits", "workers", "shards", "wall_seconds"}
        assert (meta["circuits"], meta["workers"], meta["shards"]) == (
            5, 2, len(shard_bounds(5, 2))
        )
        assert meta["wall_seconds"] > 0.0

    def test_pooled_batch_dispatches_the_count_plan(self, backend):
        # one pool task per shard_bounds shard, collected in order
        for count, jobs in ((2, 2), (5, 2), (2, 3), (7, 3)):
            circuits = [ghz(2 + index % 3) for index in range(count)]
            with collect_trace("plan") as trace:
                result = backend.run(
                    circuits, shots=SHOTS, seed=count, jobs=jobs
                )
            sizes = [b - a for a, b in shard_bounds(count, jobs)]
            meta = result.metadata["service"]
            assert (meta["circuits"], meta["shards"]) == (count, len(sizes))
            dispatches = trace.find("shard.dispatch")
            assert [d.attributes["circuits"] for d in dispatches] == sizes
        backend.close_services()

    @pytest.mark.parametrize(
        "with_readout_error", [True, False], ids=["readout", "no_readout"]
    )
    @pytest.mark.parametrize(
        "with_noise", [True, False], ids=["noisy", "noiseless"]
    )
    @pytest.mark.parametrize(
        "method", ["auto", "density_matrix", "statevector"]
    )
    def test_every_run_option_matches_inline(
        self, backend, method, with_noise, with_readout_error
    ):
        # the options reach every worker: the pooled batch returns the
        # inline batch's experiments
        kwargs = dict(
            shots=SHOTS, seed=12, method=method, with_noise=with_noise,
            with_readout_error=with_readout_error,
        )
        circuits = [ghz(2), ghz(3), ghz(4)]
        inline = outcome(backend, circuits, **kwargs)
        assert not isinstance(inline, tuple)
        assert outcome(backend, circuits, jobs=2, **kwargs) == inline

    @pytest.mark.parametrize(
        "recording", [False, True], ids=["unrecorded", "recorded"]
    )
    @pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
    def test_workers_follow_the_parents_telemetry(
        self, backend, tmp_path, tracing, recording
    ):
        circuits = [ghz(2), ghz(3), ghz(2)]
        reference = backend.run(circuits, shots=SHOTS, seed=4)
        sink = tmp_path / "records.jsonl"
        with ExitStack() as stack:
            if recording:
                set_record_sink(sink)
                stack.callback(set_record_sink, None)
            if tracing:
                trace = stack.enter_context(collect_trace("flags"))
            pooled = backend.run(circuits, shots=SHOTS, seed=4, jobs=2)
        assert pickled(pooled.experiments) == pickled(reference.experiments)
        if tracing:
            dispatched = trace.find("shard.dispatch")
            assert sum(d.attributes["circuits"] for d in dispatched) == 3
            assert len(trace.find("engine.execute")) == 3
        kinds = [row["kind"] for row in iter_records(sink)]
        assert kinds.count("execute") == (3 if recording else 0)
        assert kinds.count("batch") == (1 if recording else 0)

    def test_worker_metrics_merge_into_the_parent(self, backend):
        # each shard ships its metrics delta home: the parent's engine
        # counter grows by the batch size, as if it had run inline
        circuits = [ghz(2), ghz(3), ghz(4), ghz(3)]
        backend.run(circuits[:2], shots=SHOTS, seed=1, jobs=2)  # warm
        before = executions()
        backend.run(circuits, shots=SHOTS, seed=5, jobs=2)
        assert executions() - before == len(circuits)

    def test_warm_up_runs_once_per_worker(self):
        fresh = FakeGuadalupe()
        circuits = [ghz(3), ghz(2), ghz(3), ghz(2)]
        try:
            with collect_trace("first") as first:
                fresh.run(circuits, shots=SHOTS, seed=1, jobs=2)
            with collect_trace("second") as second:
                fresh.run(circuits, shots=SHOTS, seed=2, jobs=2)
        finally:
            fresh.close_services()
        traces = (first, second)
        warmed = [
            warm.attributes["worker_pid"]
            for trace in traces for warm in trace.find("worker.warm")
        ]
        # the warm-up rides with a worker's first shard only, whichever
        # batch that falls in
        assert warmed and len(warmed) == len(set(warmed)) <= 2
        assert set(warmed) == {
            dispatch.attributes["worker_pid"]
            for trace in traces for dispatch in trace.find("shard.dispatch")
        }


# ---------------------------------------------------------------------------
# failures stay loud: errors reach the caller, dead workers drop the pool
# ---------------------------------------------------------------------------

#: a 15-qubit GHZ state on the 16-qubit FakeGuadalupe is past the fixed
#: 14-qubit density-matrix budget: pinned to ``density_matrix`` it
#: fails at the budget check, before any simulation
PAST_BUDGET = ghz(15)


def wrong_width_pulse() -> QuantumCircuit:
    """A 2-qubit pulse gate carrying a 1-qubit unitary: the density walk
    refuses it with a ``SimulatorError`` when it builds the gate's
    superoperator."""
    gate = PulseGate(schedule=None, num_qubits=2, label="pulse")
    gate.unitary = np.eye(2, dtype=complex)
    gate.duration = 160
    circuit = QuantumCircuit(2, name="wrong_width_pulse")
    circuit.append(gate, [0, 1])
    circuit.measure_all()
    return circuit

#: runs that fail the same way inline and in a worker, by error source:
#: the error type, the batch and its run options
FAILING_RUNS = {
    "qubit_budget": (
        BackendError,
        [ghz(3), PAST_BUDGET],
        dict(method="density_matrix", seed=1),
    ),
    "unitary_shape": (
        SimulatorError,
        [ghz(3), wrong_width_pulse()],
        dict(method="density_matrix", seed=1),
    ),
    "unknown_method": (
        BackendError, [ghz(3), ghz(2)], dict(method="bogus", seed=1)
    ),
}


class TestFaultPolicy:
    """The pool's policy on failure: bad input fails before a worker
    starts, a failing circuit runs once, and the caller gets the error
    the inline run raises, on every run."""

    def test_rule_validation(self):
        fresh = FakeGuadalupe()
        service = fresh.execution_service(2)
        for circuits, seeds in (([], []), ([ghz(2)] * 3, [1, 2])):
            with pytest.raises(BackendError, match="one seed per circuit"):
                service.run_batch(circuits, seeds, shots=SHOTS)
        with pytest.raises(BackendError, match="jobs must be >= 1"):
            fresh.run([ghz(2)] * 2, shots=SHOTS, seed=1, jobs=0)
        assert service._executor is None  # no worker was started
        fresh.close_services()

    def test_decisions_are_deterministic(self, backend):
        # the same failing batch raises the same error inline, pooled,
        # and pooled again
        circuits = [ghz(3), PAST_BUDGET]
        raised = [
            outcome(
                backend, circuits, shots=SHOTS, seed=2, jobs=jobs,
                method="density_matrix",
            )
            for jobs in (1, 2, 2)
        ]
        assert raised[0] == raised[1] == raised[2]
        error_type, message = raised[0]
        assert error_type is BackendError
        assert "15 active qubits" in message

    def test_finished_shards_fold_in_before_the_error(self, backend):
        # the first shard fails at the budget check; the second runs in
        # the other worker and still reaches the parent's telemetry
        backend.run([ghz(3), ghz(2)], shots=SHOTS, seed=1, jobs=2)  # warm
        before = executions()
        with collect_trace("failing") as trace:
            with pytest.raises(BackendError, match="15 active qubits"):
                backend.run(
                    [PAST_BUDGET, ghz(3)], shots=SHOTS, seed=1, jobs=2,
                    method="density_matrix",
                )
        (dispatch,) = trace.find("shard.dispatch")
        assert dispatch.attributes["circuits"] == 1
        assert [
            span.name for span in dispatch.iter_spans()
        ].count("engine.execute") == 1
        assert executions() - before == 1

    def test_max_attempts_stops_firing(self, tmp_path):
        # one attempt per circuit: nothing reruns a failed shard, in a
        # worker or in this process
        logged = AttemptLogBackend(tmp_path / "attempts.log")
        try:
            with pytest.raises(BackendError, match="15 active qubits"):
                logged.run(
                    [ghz(3), PAST_BUDGET], shots=SHOTS, seed=5, jobs=2,
                    method="density_matrix",
                )
        finally:
            logged.close_services()
        assert sorted(logged.worker_runs()) == ["ghz15", "ghz3"]


class TestErrorClassification:
    def test_taxonomy(self, backend):
        # a worker's error keeps its class: simulator-layer failures
        # stay SimulatorError, backend-layer ones BackendError, and both
        # are ReproErrors
        for error_type, circuits, kwargs in FAILING_RUNS.values():
            with pytest.raises(ReproError) as info:
                backend.run(circuits, shots=SHOTS, jobs=2, **kwargs)
            assert type(info.value) is error_type
        assert not issubclass(SimulatorError, BackendError)
        assert not issubclass(BackendError, SimulatorError)


class TestFaultRecoveryInline:
    def test_transient_blip_retries_to_identical_counts(self, backend):
        # nothing retries on the caller's behalf: a blip (here a batch
        # with one circuit past the qubit budget) raises, and the
        # caller's own retry returns the clean run's experiments
        circuits = [ghz(3), ghz(4)]
        kwargs = dict(shots=SHOTS, seed=8, method="density_matrix")
        clean = backend.run(circuits, **kwargs)
        with pytest.raises(BackendError, match="15 active qubits"):
            backend.run([ghz(3), PAST_BUDGET], **kwargs)
        retried = backend.run(circuits, **kwargs)
        assert pickled(retried.experiments) == pickled(clean.experiments)


@pytest.mark.slow
class TestFaultRecoveryPooled:
    def test_transient_blip_recovers_byte_identical(self, backend):
        circuits = [ghz(3), ghz(4), ghz(3)]
        kwargs = dict(shots=SHOTS, seed=8, method="density_matrix")
        clean = backend.run(circuits, **kwargs)
        backend.run(circuits, jobs=2, **kwargs)
        pool = backend.execution_service(2)._executor
        with pytest.raises(BackendError, match="15 active qubits"):
            backend.run([ghz(3), PAST_BUDGET, ghz(3)], jobs=2, **kwargs)
        retried = backend.run(circuits, jobs=2, **kwargs)
        # the circuit's error cost no worker: the same pool ran the retry
        assert backend.execution_service(2)._executor is pool
        assert pickled(retried.experiments) == pickled(clean.experiments)

    @pytest.mark.parametrize("source", sorted(FAILING_RUNS))
    def test_worker_error_equals_inline_error(self, backend, source):
        error_type, circuits, kwargs = FAILING_RUNS[source]
        inline = outcome(backend, circuits, shots=SHOTS, **kwargs)
        pooled = outcome(backend, circuits, shots=SHOTS, jobs=2, **kwargs)
        assert pooled == inline
        assert inline[0] is error_type

    def test_worker_error_reaches_caller_with_its_type(self, backend):
        circuits = [ghz(3), ghz(3)]
        backend.run(circuits, shots=SHOTS, seed=1, jobs=2)
        pool = backend.execution_service(2)._executor
        # past the density-matrix qubit budget: only the workers run it
        with pytest.raises(BackendError, match="density_matrix") as info:
            backend.run(
                [PAST_BUDGET, PAST_BUDGET], shots=SHOTS, seed=1, jobs=2,
                method="density_matrix",
            )
        assert "15 active qubits" in str(info.value)
        # a circuit's own error leaves the pool up
        again = backend.run(circuits, shots=SHOTS, seed=1, jobs=2)
        assert backend.execution_service(2)._executor is pool
        assert counts_of(again.experiments) == counts_of(
            backend.run(circuits, shots=SHOTS, seed=1).experiments
        )
        backend.close_services()

    def test_worker_kill_rebuilds_pool_byte_identical(self):
        # SIGKILL (an OOM kill) of an idle worker: the next batch raises
        # BackendError and drops the pool; the one after starts afresh
        fresh = FakeGuadalupe()
        circuits = [ghz(3), ghz(2), ghz(3)]
        reference = fresh.run(circuits, shots=SHOTS, seed=4)
        try:
            fresh.run(circuits, shots=SHOTS, seed=4, jobs=2)
            service = fresh.execution_service(2)
            victim = pool_processes(fresh, 2)[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=30)
            assert not victim.is_alive()
            with pytest.raises(BackendError, match="died"):
                fresh.run(circuits, shots=SHOTS, seed=4, jobs=2)
            assert service._executor is None  # the broken pool is gone
            result = fresh.run(circuits, shots=SHOTS, seed=4, jobs=2)
            assert victim.pid not in {
                process.pid for process in pool_processes(fresh, 2)
            }
        finally:
            fresh.close_services()
        assert counts_of(result.experiments) == counts_of(
            reference.experiments
        )

    def test_warm_up_takes_the_batch_options(self):
        # the warm-up runs the first circuit with the batch's method,
        # noise and readout-error options: a noiseless 15-qubit batch
        # warms up on the statevector, though under the backend's noise
        # auto would resolve it to the density matrix, past its budget
        fresh = FakeGuadalupe()
        circuits = [PAST_BUDGET, PAST_BUDGET]
        kwargs = dict(shots=SHOTS, seed=6, method="auto",
                      with_noise=False, with_readout_error=False)
        try:
            with collect_trace("warm") as trace:
                pooled = fresh.run(circuits, jobs=2, **kwargs)
        finally:
            fresh.close_services()
        # one warm span per worker that ran a shard (a fast worker may
        # take both shards while the other still warms up)
        warms = trace.find("worker.warm")
        assert sorted(warm.attributes["worker_pid"] for warm in warms) == (
            sorted({d.attributes["worker_pid"]
                    for d in trace.find("shard.dispatch")})
        )
        assert warms and all(
            warm.attributes["error"] is None for warm in warms
        )
        inline = fresh.run(circuits, **kwargs)
        assert counts_of(pooled.experiments) == counts_of(
            inline.experiments
        )
        assert {e.metadata["method"] for e in pooled.experiments} == {
            "statevector"
        }

    def test_warm_failure_surfaces_in_worker_metadata(self):
        # a batch whose first circuit fails on its own fails every
        # warm-up and every shard; each worker's failed warm-up rides
        # with the first shard it returns, here the next batch's
        fresh = FakeGuadalupe()
        circuits = [ghz(3), ghz(4)]
        kwargs = dict(shots=SHOTS, seed=6, method="density_matrix")
        try:
            with pytest.raises(BackendError, match="15 active qubits"):
                fresh.run([PAST_BUDGET, PAST_BUDGET], jobs=2, **kwargs)
            with collect_trace("warm") as trace:
                pooled = fresh.run(circuits, jobs=2, **kwargs)
        finally:
            fresh.close_services()
        warms = trace.find("worker.warm")
        assert sorted(warm.attributes["worker_pid"] for warm in warms) == (
            sorted({d.attributes["worker_pid"]
                    for d in trace.find("shard.dispatch")})
        )
        assert warms and all(
            warm.attributes["error"].startswith(
                "BackendError: 15 active qubits"
            )
            for warm in warms
        )
        inline = fresh.run(circuits, **kwargs)
        assert counts_of(pooled.experiments) == counts_of(
            inline.experiments
        )


# ---------------------------------------------------------------------------
# cache statistics plumbing
# ---------------------------------------------------------------------------

def test_cache_stats_totals_shape():
    totals = cache_stats_totals()
    assert set(totals) == {"hits", "misses", "caches"}
    assert totals["hits"] >= 0 and totals["misses"] >= 0
