"""Tests for the sharded execution service (src/repro/service/).

The load-bearing guarantee is *determinism under sharding*: for fixed
seeds, ``jobs=1`` and ``jobs=N`` must produce byte-identical counts and
energies.  Multi-process tests carry the ``slow`` marker (registered in
pytest.ini) but use quick configs so the whole module stays well under
30 s — tier-1 (`pytest -x -q`) runs everything.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import FakeGuadalupe
from repro.backends.result import Counts, ExperimentResult
from repro.core import (
    ExecutionPipeline,
    GateLevelModel,
    HybridGatePulseModel,
    binary_search_mixer_duration,
    train_model,
)
from repro.backends.engine import classify_error
from repro.circuits import QuantumCircuit
from repro.exceptions import (
    BackendError,
    QuarantineError,
    ReproError,
    TransientError,
)
from repro.problems import MaxCutProblem, benchmark_graph
from repro.service import (
    CircuitJob,
    ExecutionService,
    FaultInjected,
    FaultPolicy,
    FaultRule,
    JobFailure,
    PermanentFaultInjected,
    ResultStore,
    SweepJob,
    backend_config_digest,
    derive_job_seeds,
    job_fingerprint,
    plan_shards,
)
from repro.telemetry import clear_metrics, collect_trace
from repro.utils.cache import cache_stats_totals
from repro.utils.rng import derive_seed
from repro.vqa import ExpectedCutCost
from repro.vqa.optimizers import SPSA

SHOTS = 128


@pytest.fixture(scope="module")
def backend():
    return FakeGuadalupe()


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


# ---------------------------------------------------------------------------
# shard planner
# ---------------------------------------------------------------------------

class TestShardPlanner:
    def test_covers_all_indices_contiguously(self):
        shards = plan_shards(23, 4, shards_per_worker=3)
        flat = [idx for shard in shards for idx in shard]
        assert flat == list(range(23))
        assert all(shard == sorted(shard) for shard in shards)

    def test_balanced_sizes(self):
        shards = plan_shards(10, 2, shards_per_worker=2)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 10

    def test_oversubscription_for_work_stealing(self):
        # more shards than workers so fast workers can steal
        shards = plan_shards(100, 4, shards_per_worker=4)
        assert 4 < len(shards) <= 16

    def test_never_more_shards_than_jobs(self):
        assert len(plan_shards(3, 8)) == 3

    def test_more_workers_than_jobs_one_job_per_shard(self):
        # the paper's pooled batches: one density unit per worker
        assert plan_shards(2, 2) == [[0], [1]]
        assert plan_shards(3, 8) == [[0], [1], [2]]

    def test_single_job(self):
        assert plan_shards(1, 4) == [[0]]
        assert plan_shards(1, 1, shards_per_worker=16) == [[0]]

    def test_min_shard_size(self):
        shards = plan_shards(100, 4, shards_per_worker=8, min_shard_size=10)
        assert all(len(s) >= 10 for s in shards)

    def test_min_shard_size_caps_oversubscription(self):
        # 12 jobs / min size 4 allows at most 3 shards even though the
        # oversubscription target asks for 8
        shards = plan_shards(12, 2, shards_per_worker=4, min_shard_size=4)
        assert len(shards) == 3
        assert all(len(shard) >= 4 for shard in shards)

    def test_worker_floor_beats_min_shard_size(self):
        # the one-shard-per-worker floor wins over min_shard_size: every
        # worker gets work even if shards run small
        shards = plan_shards(10, 8, shards_per_worker=1, min_shard_size=10)
        assert len(shards) == 8
        assert [idx for shard in shards for idx in shard] == list(range(10))

    def test_empty_and_invalid(self):
        assert plan_shards(0, 4) == []
        with pytest.raises(BackendError):
            plan_shards(4, 0)

    def test_invalid_oversubscription_and_shard_size(self):
        for knobs in ({"shards_per_worker": 0}, {"min_shard_size": 0}):
            with pytest.raises(BackendError):
                plan_shards(4, 2, **knobs)

    @settings(max_examples=200, deadline=None)
    @given(
        num_jobs=st.integers(0, 200),
        workers=st.integers(1, 16),
        shards_per_worker=st.integers(1, 8),
        min_shard_size=st.integers(1, 20),
    )
    def test_property_contiguous_balanced_cover(
        self, num_jobs, workers, shards_per_worker, min_shard_size
    ):
        shards = plan_shards(
            num_jobs,
            workers,
            shards_per_worker=shards_per_worker,
            min_shard_size=min_shard_size,
        )
        # every index exactly once, in order, no empty shard
        flat = [idx for shard in shards for idx in shard]
        assert flat == list(range(num_jobs))
        assert all(shards)
        if not shards:
            return
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1
        floor = min(workers, num_jobs)
        assert len(shards) >= floor
        assert len(shards) <= max(
            min(workers * shards_per_worker, num_jobs // min_shard_size),
            floor,
        )
        if len(shards) > floor:
            # past the worker floor, min_shard_size holds
            assert min(sizes) >= min_shard_size


# ---------------------------------------------------------------------------
# job specs and seed derivation
# ---------------------------------------------------------------------------

class TestJobSeeds:
    def test_sweep_seed_derivation_rule(self, sweep_circuits):
        sweep = SweepJob(sweep_circuits, shots=SHOTS, seed=17)
        expected = [
            derive_seed(17, "job", i) for i in range(len(sweep_circuits))
        ]
        assert sweep.resolved_seeds() == expected
        assert derive_job_seeds(17, len(sweep_circuits)) == expected
        assert [job.seed for job in sweep.jobs()] == expected

    def test_explicit_seeds_override(self, sweep_circuits):
        seeds = list(range(100, 100 + len(sweep_circuits)))
        sweep = SweepJob(sweep_circuits, shots=SHOTS, seeds=seeds)
        assert [job.seed for job in sweep.jobs()] == seeds

    def test_unseeded_stays_unseeded(self, sweep_circuits):
        sweep = SweepJob(sweep_circuits, shots=SHOTS)
        assert sweep.resolved_seeds() == [None] * len(sweep_circuits)

    def test_seed_count_mismatch(self, sweep_circuits):
        with pytest.raises(BackendError):
            SweepJob(sweep_circuits, seeds=[1]).resolved_seeds()

    def test_shots_must_be_positive(self, sweep_circuits):
        with pytest.raises(BackendError):
            CircuitJob(sweep_circuits[0], shots=0)


class TestFingerprint:
    def test_stable_and_sensitive(self, sweep_circuits):
        job = CircuitJob(sweep_circuits[0], shots=SHOTS, seed=3)
        key = job_fingerprint(job, "ibmq_guadalupe")
        assert key == job_fingerprint(job, "ibmq_guadalupe")
        assert len(key) == 64
        # every content dimension moves the hash
        others = [
            CircuitJob(sweep_circuits[1], shots=SHOTS, seed=3),
            CircuitJob(sweep_circuits[0], shots=SHOTS + 1, seed=3),
            CircuitJob(sweep_circuits[0], shots=SHOTS, seed=4),
            CircuitJob(
                sweep_circuits[0], shots=SHOTS, seed=3, with_noise=False
            ),
        ]
        for other in others:
            assert job_fingerprint(other, "ibmq_guadalupe") != key
        assert job_fingerprint(job, "ibmq_toronto") != key

    def test_pulse_channel_moves_the_hash(self):
        from repro.circuits.gates import PulseGate
        from repro.pulse import (
            ControlChannel,
            DriveChannel,
            Gaussian,
            Play,
            Schedule,
        )
        from repro.service import circuit_fingerprint

        keys = []
        for channel in (DriveChannel(0), DriveChannel(1), ControlChannel(0)):
            circuit = QuantumCircuit(2)
            schedule = Schedule((0, Play(Gaussian(160, 0.4, 40), channel)))
            circuit.append(PulseGate(schedule, num_qubits=2), [0, 1])
            circuit.measure_all()
            job = CircuitJob(circuit, shots=SHOTS, seed=3)
            keys.append(
                (
                    circuit_fingerprint(circuit),
                    job_fingerprint(job, "ibmq_guadalupe"),
                )
            )
        for index, (circuit_key, job_key) in enumerate(keys):
            for other_circuit_key, other_job_key in keys[index + 1:]:
                assert circuit_key != other_circuit_key
                assert job_key != other_job_key

    def test_unseeded_is_not_storable(self, sweep_circuits):
        job = CircuitJob(sweep_circuits[0], shots=SHOTS, seed=None)
        assert job_fingerprint(job, "ibmq_guadalupe") is None

    def test_parameterized_circuit_is_not_storable(self, problem):
        from repro.circuits import Parameter, QuantumCircuit

        circuit = QuantumCircuit(1)
        circuit.rx(Parameter("theta"), 0)
        job = CircuitJob(circuit, shots=SHOTS, seed=1)
        assert job_fingerprint(job, "ibmq_guadalupe") is None

    def test_config_digest_separates_modified_backends(self):
        stock = FakeGuadalupe()
        modified = FakeGuadalupe()
        modified.noise_model.pulse_jitter_local = 0.5
        assert backend_config_digest(stock) == backend_config_digest(
            FakeGuadalupe()
        )
        assert backend_config_digest(stock) != backend_config_digest(
            modified
        )

    def test_config_digest_ignores_warmed_caches(
        self, backend, sweep_circuits
    ):
        fresh = FakeGuadalupe()
        # `backend` has executed many sweeps this module; its caches are
        # warm but its physics configuration is stock
        assert backend_config_digest(backend) == backend_config_digest(
            fresh
        )


# ---------------------------------------------------------------------------
# result store
# ---------------------------------------------------------------------------

class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        experiment = ExperimentResult(
            Counts({"00": 70, "11": 58}),
            duration=4512,
            metadata={
                "active_qubits": [0, 1, 4],
                "measured_qubits": [0, 1],
                "clbit_to_qubit": {0: 0, 1: 1},
                "weights": np.linspace(0.0, 1.0, 5),
            },
        )
        key = "ab" + "0" * 62
        store.put(key, experiment)
        assert key in store
        loaded = store.get(key)
        assert dict(loaded.counts) == {"00": 70, "11": 58}
        assert loaded.duration == 4512
        assert loaded.metadata["active_qubits"] == [0, 1, 4]
        assert loaded.metadata["clbit_to_qubit"] == {0: 0, 1: 1}
        np.testing.assert_array_equal(
            loaded.metadata["weights"], np.linspace(0.0, 1.0, 5)
        )
        assert store.stats()["entries"] == 1

    def test_miss_and_clear(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get("cd" + "0" * 62) is None
        store.put(
            "ef" + "0" * 62,
            ExperimentResult(Counts({"0": SHOTS}), 100),
        )
        assert len(store) == 1
        assert store.clear() == 1
        assert len(store) == 0

    def test_malformed_key_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(BackendError):
            store.get("../escape")

    def test_float_metadata_survives_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "aa" + "1" * 62
        store.put(
            key,
            ExperimentResult(
                Counts({"0": SHOTS}),
                100,
                metadata={"angles": [0.98, 1.02], "scale": 0.5},
            ),
        )
        loaded = store.get(key)
        assert loaded.metadata["angles"] == [0.98, 1.02]
        assert loaded.metadata["scale"] == 0.5

    def test_unstorable_metadata_raises_backend_error(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(BackendError):
            store.put(
                "bb" + "1" * 62,
                ExperimentResult(
                    Counts({"0": SHOTS}),
                    100,
                    metadata={"bad": [object()]},
                ),
            )

    def test_served_from_disk_not_recomputed(
        self, tmp_path, backend, sweep_circuits
    ):
        store = ResultStore(tmp_path / "store")
        with ExecutionService(backend, jobs=1, store=store) as service:
            sweep = SweepJob(sweep_circuits[:3], shots=SHOTS, seed=5)
            first = service.map(sweep)
            ran_after_first = service.stats()["jobs_run"]
            second = service.map(SweepJob(sweep_circuits[:3], shots=SHOTS, seed=5))
            assert service.stats()["jobs_run"] == ran_after_first
            assert service.stats()["store_hits"] == 3
        assert counts_of(first) == counts_of(second)


# ---------------------------------------------------------------------------
# determinism under sharding (the acceptance-critical guarantee)
# ---------------------------------------------------------------------------

@pytest.mark.slow
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
        assert meta["jobs"] == len(sweep_circuits)
        assert meta["workers"] == 4
        assert meta["per_worker"]  # at least one worker reported stats
        for totals in meta["per_worker"].values():
            assert {"hits", "misses", "caches"} <= set(totals)
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
        sharded = run(4)
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
            model, pipeline, parameters, seed=31, jobs=3
        )
        assert serial.duration == sharded.duration
        assert serial.evaluations == sharded.evaluations
        assert serial.infeasible == sharded.infeasible
        backend.close_services()


# ---------------------------------------------------------------------------
# futures API: submit / as_completed / backpressure / shutdown
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestFuturesAPI:
    def test_submit_and_as_completed(self, backend, sweep_circuits):
        sweep = SweepJob(sweep_circuits, shots=SHOTS, seed=13)
        with ExecutionService(backend, jobs=2) as service:
            futures = [service.submit(job) for job in sweep.jobs()]
            done = list(service.as_completed(futures, timeout=60))
            assert set(done) == set(futures)
            ordered = [f.result() for f in futures]
        reference = backend.run(
            sweep_circuits, shots=SHOTS, seeds=sweep.resolved_seeds()
        )
        assert counts_of(ordered) == counts_of(reference.experiments)

    def test_backpressure_bounds_in_flight_jobs(
        self, backend, sweep_circuits
    ):
        with ExecutionService(
            backend, jobs=2, max_pending=2
        ) as service:
            futures = [
                service.submit(job)
                for job in SweepJob(
                    sweep_circuits, shots=SHOTS, seed=3
                ).jobs()
            ]
            results = [f.result() for f in futures]
        assert len(results) == len(sweep_circuits)
        assert service.stats()["max_pending_seen"] <= 2
        assert service.stats()["pending"] == 0

    def test_map_respects_backpressure_bound(
        self, backend, sweep_circuits
    ):
        with ExecutionService(
            backend, jobs=2, max_pending=2
        ) as service:
            service.map(SweepJob(sweep_circuits, shots=SHOTS, seed=3))
            assert service.stats()["max_pending_seen"] <= 2

    def test_shutdown_rejects_new_work(self, backend, sweep_circuits):
        service = ExecutionService(backend, jobs=2)
        service.shutdown()
        with pytest.raises(BackendError):
            service.submit(
                CircuitJob(sweep_circuits[0], shots=SHOTS, seed=1)
            )

    def test_inline_fallback_matches_pool(
        self, backend, sweep_circuits
    ):
        sweep = SweepJob(sweep_circuits[:3], shots=SHOTS, seed=29)
        with ExecutionService(backend, jobs=1) as inline:
            inline_results = inline.map(sweep)
            # inline mode reports the in-process cache totals uniformly
            assert "inline" in inline.stats()["per_worker"]
        with ExecutionService(backend, jobs=2) as pooled:
            pooled_results = pooled.map(
                SweepJob(sweep_circuits[:3], shots=SHOTS, seed=29)
            )
        assert counts_of(inline_results) == counts_of(pooled_results)

    def test_backend_reuses_one_service_per_worker_count(
        self, backend, sweep_circuits
    ):
        # an optimizer loop calls run(jobs=2) per evaluation; each call
        # must land on the same pool instead of starting a new one
        service = backend.execution_service(2)
        try:
            for seed in (1, 2):
                backend.run(
                    sweep_circuits[:2], shots=SHOTS, seed=seed, jobs=2
                )
            assert backend.execution_service(2) is service
        finally:
            backend.close_services()


class TestServiceConfiguration:
    """Constructor, stats and backend-cache surface; no pool starts."""

    def test_constructor_validation(self, backend):
        for knobs in (
            {"jobs": 0},
            {"max_pending": 0},
            {"retries": -1},
            {"retry_backoff": -0.1},
            {"shard_timeout": 0},
            {"max_pool_rebuilds": -1},
        ):
            with pytest.raises(BackendError):
                ExecutionService(backend, **knobs)

    def test_stats_schema(self, backend):
        service = ExecutionService(backend, jobs=2)
        stats = service.stats()
        service.shutdown()
        assert set(stats) == {
            "workers", "pending", "jobs_submitted", "jobs_run",
            "shards_dispatched", "store_hits", "store_misses",
            "max_pending_seen", "per_worker", "retries",
            "transient_errors", "timeouts", "pool_rebuilds",
            "quarantined", "inline_fallbacks", "store_degraded",
            "metrics",
        }
        assert stats["workers"] == 2
        assert stats["per_worker"] == {}
        assert stats["store_degraded"] is False

    def test_backend_service_takes_only_jobs(self, backend, tmp_path):
        # options would be silently ignored by a service cached under
        # the same worker count; build an ExecutionService instead
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
        # closing tears the cached services down; the next call builds
        # a fresh one
        with pytest.raises(BackendError):
            two.submit(CircuitJob(ghz(3), shots=SHOTS, seed=1))
        fresh = backend.execution_service(2)
        try:
            assert fresh is not two
        finally:
            backend.close_services()


# ---------------------------------------------------------------------------
# pooled scheduling: mixed-method batches and trajectory fan-out
# ---------------------------------------------------------------------------

def ghz(qubits: int) -> QuantumCircuit:
    circuit = QuantumCircuit(qubits, name=f"ghz{qubits}")
    circuit.h(0)
    for qubit in range(qubits - 1):
        circuit.cx(qubit, qubit + 1)
    circuit.measure_all()
    return circuit


def mixed_jobs() -> list[CircuitJob]:
    """Cheap stabilizer jobs interleaved with density-matrix jobs."""
    return [
        CircuitJob(
            circuit=ghz(3),
            shots=SHOTS,
            seed=11 + index,
            method="stabilizer" if index % 2 else "density_matrix",
            with_noise=not index % 2,
        )
        for index in range(6)
    ]


@pytest.mark.slow
class TestPooledScheduling:
    def test_mixed_batch_byte_identical_to_inline(self, backend):
        jobs = mixed_jobs()
        with ExecutionService(backend, jobs=2) as pooled:
            pooled_results, meta = pooled.run_jobs(jobs)
        with ExecutionService(backend, jobs=1) as inline:
            inline_results, inline_meta = inline.run_jobs(jobs)
        assert [pickle.dumps(e) for e in pooled_results] == [
            pickle.dumps(e) for e in inline_results
        ]
        assert meta["scheduler"]["shards_planned"] == len(
            plan_shards(len(jobs), 2)
        )
        assert meta["scheduler"]["shard_imbalance"] >= 1.0
        assert inline_meta["scheduler"] == {}

    def test_queue_wait_metric_recorded(self, backend):
        clear_metrics()
        with ExecutionService(backend, jobs=2) as service:
            service.run_jobs(mixed_jobs())
            histograms = service.stats()["metrics"]["histograms"]
        assert any(
            "service.queue_wait_seconds" in str(key)
            for key in histograms
        )
        assert not any(
            "shard_queue_wait" in str(key) for key in histograms
        )

    def test_trajectory_fanout_honors_shards_per_worker(self, backend):
        """Regression: fan-out once hardcoded shards_per_worker=2."""
        trajectories = 24
        job = CircuitJob(
            circuit=ghz(3),
            shots=SHOTS,
            seed=7,
            method="trajectory",
            trajectories=trajectories,
        )
        for spw in (2, 3):
            with ExecutionService(
                backend, jobs=2, shards_per_worker=spw
            ) as service:
                _, meta = service.run_jobs([job])
            expected = len(plan_shards(trajectories, 2, shards_per_worker=spw))
            assert meta["trajectory_subjobs"] == expected
        assert len(plan_shards(trajectories, 2, shards_per_worker=2)) != len(
            plan_shards(trajectories, 2, shards_per_worker=3)
        )

    def test_scheduler_meta_describes_the_count_plan(self, backend):
        with ExecutionService(backend, jobs=2) as service:
            _, meta = service.run_jobs(mixed_jobs())
        scheduler = meta["scheduler"]
        assert set(scheduler) == {
            "shards_planned", "actual_shard_seconds", "shard_imbalance",
        }
        # fault-free: one measured wall per planned shard
        walls = scheduler["actual_shard_seconds"]
        assert len(walls) == scheduler["shards_planned"]
        assert all(wall >= 0.0 for wall in walls)
        # slowest over mean: 1.0 when level, at most the shard count
        assert 1.0 <= scheduler["shard_imbalance"] <= len(walls)

    def test_plan_span_and_imbalance_gauge(self, backend):
        clear_metrics()
        with ExecutionService(backend, jobs=2) as service:
            with collect_trace("plan") as trace:
                _, meta = service.run_jobs(mixed_jobs())
            gauges = service.stats()["metrics"]["gauges"]
        scheduler = meta["scheduler"]
        (plan,) = trace.find("scheduler.plan")
        assert plan.attributes["units"] == len(mixed_jobs())
        assert plan.attributes["shards"] == scheduler["shards_planned"]
        assert plan.attributes["actual_seconds"] == (
            scheduler["actual_shard_seconds"]
        )
        assert plan.attributes["imbalance"] == scheduler["shard_imbalance"]
        assert gauges["shard.imbalance"] == pytest.approx(
            scheduler["shard_imbalance"], abs=1e-6
        )

    def test_pooled_batch_dispatches_the_count_plan(
        self, backend, sweep_circuits
    ):
        jobs = SweepJob(sweep_circuits, shots=SHOTS, seed=5).jobs()
        with ExecutionService(backend, jobs=2) as service:
            _, meta = service.run_jobs(jobs)
            dispatched = service.stats()["shards_dispatched"]
        planned = len(plan_shards(len(jobs), 2))
        assert meta["scheduler"]["shards_planned"] == planned
        assert dispatched == planned

    def test_max_pending_splits_planned_shards(self, backend):
        # plan_shards(6, 2, shards_per_worker=1) gives two shards of 3;
        # a bound of 2 in-flight jobs splits each into 2 + 1
        jobs = mixed_jobs()
        with ExecutionService(
            backend, jobs=2, shards_per_worker=1, max_pending=2
        ) as pooled:
            pooled_results, meta = pooled.run_jobs(jobs)
        with ExecutionService(backend, jobs=1) as inline:
            inline_results, _ = inline.run_jobs(jobs)
        assert meta["scheduler"]["shards_planned"] == 4
        assert [pickle.dumps(e) for e in pooled_results] == [
            pickle.dumps(e) for e in inline_results
        ]


# ---------------------------------------------------------------------------
# fault tolerance: chaos tests against the deterministic fault harness
# ---------------------------------------------------------------------------
#
# The invariant under test everywhere below: recovery is *silent* with
# respect to results.  Whatever the injected failure — worker SIGKILL,
# transient exceptions, hung shards, poison jobs, a dying store — the
# surviving jobs' counts must be byte-identical to a clean ``jobs=1``
# run, because retries re-execute the same pre-resolved seeds.

@pytest.fixture(scope="module")
def fault_jobs(sweep_circuits):
    return SweepJob(sweep_circuits, shots=SHOTS, seed=7).jobs()


@pytest.fixture(scope="module")
def clean_counts(backend, fault_jobs):
    """The jobs=1 no-faults reference every chaos test compares to."""
    with ExecutionService(backend) as service:
        experiments, meta = service.run_jobs(fault_jobs)
    assert meta["faults"]["retries"] == 0
    return counts_of(experiments)


class TestFaultPolicy:
    def test_rule_validation(self):
        with pytest.raises(BackendError):
            FaultRule("explode")
        with pytest.raises(BackendError):
            FaultRule("transient", scope="everywhere")
        with pytest.raises(BackendError):
            FaultRule("transient", rate=1.5)
        with pytest.raises(BackendError):
            FaultRule("transient", max_attempts=0)
        with pytest.raises(BackendError):
            FaultRule("delay", delay_seconds=-1.0)

    def test_decisions_are_deterministic(self):
        policy = FaultPolicy(
            rules=(FaultRule("transient", rate=0.5, max_attempts=None),),
            seed=11,
        )
        decisions = [
            bool(policy.matching("job", unit, attempt))
            for unit in range(20)
            for attempt in range(3)
        ]
        assert decisions == [
            bool(policy.matching("job", unit, attempt))
            for unit in range(20)
            for attempt in range(3)
        ]
        assert any(decisions) and not all(decisions)
        # a different seed must reshuffle which (unit, attempt) pairs fire
        other = FaultPolicy(
            rules=(FaultRule("transient", rate=0.5, max_attempts=None),),
            seed=12,
        )
        assert decisions != [
            bool(other.matching("job", unit, attempt))
            for unit in range(20)
            for attempt in range(3)
        ]

    def test_max_attempts_stops_firing(self):
        policy = FaultPolicy(rules=(FaultRule("transient", max_attempts=2),))
        assert policy.matching("job", 0, 0)
        assert policy.matching("job", 0, 1)
        assert not policy.matching("job", 0, 2)

    def test_match_tag_restricts_targets(self):
        policy = FaultPolicy(
            rules=(FaultRule("permanent", match_tag="poison"),)
        )
        assert not policy.matching("job", 0, 0, tag=None)
        with pytest.raises(PermanentFaultInjected):
            policy.apply("job", 0, 0, tag="poison")

    def test_kill_downgrades_inline(self):
        policy = FaultPolicy(rules=(FaultRule("kill"),))
        # allow_kill=False must never os._exit this very process
        with pytest.raises(FaultInjected):
            policy.apply("job", 0, 0, allow_kill=False)

    def test_policy_pickles(self):
        import pickle

        policy = FaultPolicy(
            rules=(FaultRule("kill", rate=0.25, max_attempts=3),), seed=5
        )
        assert pickle.loads(pickle.dumps(policy)) == policy


class TestErrorClassification:
    def test_taxonomy(self):
        assert classify_error(TransientError("blip")) == "transient"
        assert classify_error(FaultInjected("blip")) == "transient"
        assert classify_error(MemoryError()) == "permanent"
        assert classify_error(ReproError("bad circuit")) == "permanent"
        assert classify_error(BackendError("bad job")) == "permanent"
        # unknown infrastructure errors retry (simulation is
        # side-effect-free, so a bounded retry is always safe)
        assert classify_error(OSError("pipe")) == "transient"


@pytest.mark.faults
class TestFaultRecoveryInline:
    def test_transient_blip_retries_to_identical_counts(
        self, backend, fault_jobs, clean_counts
    ):
        policy = FaultPolicy(rules=(FaultRule("transient", max_attempts=1),))
        with ExecutionService(
            backend, fault_policy=policy, retry_backoff=0.001
        ) as service:
            experiments, meta = service.run_jobs(fault_jobs)
        assert counts_of(experiments) == clean_counts
        assert meta["faults"]["retries"] == len(fault_jobs)
        assert meta["faults"]["transient_errors"] == len(fault_jobs)

    def test_exhausted_retries_quarantine(self, backend, fault_jobs):
        policy = FaultPolicy(
            rules=(FaultRule("transient", max_attempts=None),)
        )
        with ExecutionService(
            backend, fault_policy=policy, retries=1, retry_backoff=0.001
        ) as service:
            with pytest.raises(QuarantineError) as excinfo:
                service.run_jobs(fault_jobs)
        failures = excinfo.value.failures
        assert [f.index for f in failures] == list(range(len(fault_jobs)))
        assert all(f.attempts == 2 for f in failures)  # retries + 1

    def test_poison_job_fails_alone(
        self, backend, fault_jobs, clean_counts
    ):
        tagged = [
            replace(job, tag="poison") if index == 2 else job
            for index, job in enumerate(fault_jobs)
        ]
        policy = FaultPolicy(
            rules=(
                FaultRule(
                    "permanent", max_attempts=None, match_tag="poison"
                ),
            )
        )
        with ExecutionService(backend, fault_policy=policy) as service:
            results, meta = service.run_jobs(
                tagged, return_exceptions=True
            )
        assert isinstance(results[2], JobFailure)
        assert results[2].index == 2
        survivors = [r for i, r in enumerate(results) if i != 2]
        reference = [c for i, c in enumerate(clean_counts) if i != 2]
        assert counts_of(survivors) == reference
        quarantined = meta["faults"]["quarantined"]
        assert [entry["index"] for entry in quarantined] == [2]

    def test_quarantine_error_is_descriptive(self, backend, fault_jobs):
        tagged = [
            replace(job, tag="poison") if index == 2 else job
            for index, job in enumerate(fault_jobs)
        ]
        policy = FaultPolicy(
            rules=(
                FaultRule(
                    "permanent", max_attempts=None, match_tag="poison"
                ),
            )
        )
        with ExecutionService(backend, fault_policy=policy) as service:
            with pytest.raises(QuarantineError) as excinfo:
                service.run_jobs(tagged)
        error = excinfo.value
        assert len(error.failures) == 1
        assert "PermanentFaultInjected" in error.failures[0].error
        assert set(error.failures[0].as_dict()) == {
            "index", "description", "error", "attempts",
        }
        assert error.service_meta["faults"]["quarantined"]


@pytest.mark.faults
@pytest.mark.slow
class TestFaultRecoveryPooled:
    def test_transient_blip_recovers_byte_identical(
        self, backend, fault_jobs, clean_counts
    ):
        policy = FaultPolicy(rules=(FaultRule("transient", max_attempts=1),))
        with ExecutionService(
            backend, jobs=2, fault_policy=policy, retry_backoff=0.001
        ) as service:
            experiments, meta = service.run_jobs(fault_jobs)
        assert counts_of(experiments) == clean_counts
        assert meta["faults"]["retries"] >= 1
        assert meta["faults"]["pool_rebuilds"] == 0

    def test_worker_kill_rebuilds_pool_byte_identical(
        self, backend, fault_jobs, clean_counts
    ):
        # every first attempt dies by os._exit (the moral SIGKILL /
        # OOM-kill of a live worker mid-batch): the parent must see
        # BrokenProcessPool, rebuild, and resubmit the lost shards
        policy = FaultPolicy(rules=(FaultRule("kill", max_attempts=1),))
        with ExecutionService(
            backend, jobs=2, fault_policy=policy, retry_backoff=0.001
        ) as service:
            experiments, meta = service.run_jobs(fault_jobs)
        assert counts_of(experiments) == clean_counts
        assert meta["faults"]["pool_rebuilds"] >= 1
        assert meta["faults"]["inline_fallback"] is False

    def test_shard_timeout_reclaims_hung_worker(
        self, backend, fault_jobs, clean_counts
    ):
        # first attempts hang far beyond the per-unit budget; the
        # service must time the shards out, terminate the hung workers
        # and rerun on a fresh pool
        policy = FaultPolicy(
            rules=(
                FaultRule("delay", delay_seconds=30.0, max_attempts=1),
            )
        )
        with ExecutionService(
            backend,
            jobs=2,
            fault_policy=policy,
            retry_backoff=0.001,
            shard_timeout=2.0,
        ) as service:
            experiments, meta = service.run_jobs(fault_jobs)
        assert counts_of(experiments) == clean_counts
        assert meta["faults"]["timeouts"] >= 1
        assert meta["faults"]["pool_rebuilds"] >= 1

    def test_poison_job_bisected_out_of_shard(
        self, backend, fault_jobs, clean_counts
    ):
        # shards_per_worker=1 packs three jobs per shard, so the poison
        # job first fails as part of a multi-job shard and must be
        # narrowed down by bisection before it can be quarantined alone
        tagged = [
            replace(job, tag="poison") if index == 1 else job
            for index, job in enumerate(fault_jobs)
        ]
        policy = FaultPolicy(
            rules=(
                FaultRule(
                    "permanent", max_attempts=None, match_tag="poison"
                ),
            )
        )
        with ExecutionService(
            backend,
            jobs=2,
            shards_per_worker=1,
            fault_policy=policy,
            retry_backoff=0.001,
        ) as service:
            results, meta = service.run_jobs(
                tagged, return_exceptions=True
            )
        assert isinstance(results[1], JobFailure)
        survivors = [r for i, r in enumerate(results) if i != 1]
        reference = [c for i, c in enumerate(clean_counts) if i != 1]
        assert counts_of(survivors) == reference
        assert [e["index"] for e in meta["faults"]["quarantined"]] == [1]

    def test_repeated_pool_loss_degrades_to_inline(
        self, backend, fault_jobs, clean_counts
    ):
        # with a zero rebuild budget, the first broken pool must push
        # the whole remaining batch onto the inline path — where the
        # kill rule downgrades to a transient and retries succeed
        policy = FaultPolicy(rules=(FaultRule("kill", max_attempts=2),))
        with ExecutionService(
            backend,
            jobs=2,
            fault_policy=policy,
            retry_backoff=0.001,
            max_pool_rebuilds=0,
        ) as service:
            experiments, meta = service.run_jobs(fault_jobs)
        assert counts_of(experiments) == clean_counts
        assert meta["faults"]["inline_fallback"] is True
        assert service.stats()["inline_fallbacks"] == 1

    def test_submit_path_retries_transients(
        self, backend, fault_jobs, clean_counts
    ):
        policy = FaultPolicy(rules=(FaultRule("transient", max_attempts=1),))
        with ExecutionService(
            backend, jobs=2, fault_policy=policy, retry_backoff=0.001
        ) as service:
            futures = [service.submit(job) for job in fault_jobs]
            experiments = [f.result(timeout=120) for f in futures]
        assert counts_of(experiments) == clean_counts
        assert service.stats()["retries"] >= 1

    def test_warm_failure_surfaces_in_worker_metadata(
        self, backend, fault_jobs, clean_counts
    ):
        # a warm-up failure must not break the pool (jobs still run,
        # just cold) but must be visible per worker, not swallowed
        policy = FaultPolicy(
            rules=(FaultRule("transient", scope="warm", max_attempts=None),)
        )
        with ExecutionService(
            backend, jobs=2, fault_policy=policy
        ) as service:
            experiments, meta = service.run_jobs(fault_jobs)
        assert counts_of(experiments) == clean_counts
        warm_errors = [
            worker.get("warm_error")
            for worker in meta["per_worker"].values()
        ]
        assert warm_errors and all(
            "FaultInjected" in (message or "") for message in warm_errors
        )


@pytest.mark.faults
@pytest.mark.slow
class TestStoreResilience:
    def test_crashed_batch_resumes_from_checkpoints(
        self, backend, fault_jobs, clean_counts, tmp_path
    ):
        # first run dies on a poison job, but every completed shard was
        # already checkpointed; the resubmitted batch must serve the
        # survivors from the store and execute only the missing job
        tagged = [
            replace(job, tag="poison") if index == 2 else job
            for index, job in enumerate(fault_jobs)
        ]
        policy = FaultPolicy(
            rules=(
                FaultRule(
                    "permanent", max_attempts=None, match_tag="poison"
                ),
            )
        )
        store_root = tmp_path / "store"
        with ExecutionService(
            backend,
            jobs=2,
            store=ResultStore(store_root),
            fault_policy=policy,
        ) as service:
            with pytest.raises(QuarantineError):
                service.run_jobs(tagged)
        assert len(ResultStore(store_root)) == len(fault_jobs) - 1
        with ExecutionService(
            backend, jobs=2, store=ResultStore(store_root)
        ) as resumed:
            experiments, meta = resumed.run_jobs(fault_jobs)
        assert counts_of(experiments) == clean_counts
        assert meta["store_hits"] == len(fault_jobs) - 1
        assert resumed.stats()["jobs_run"] == 1

    def test_store_write_failure_degrades_not_kills(
        self, backend, fault_jobs, clean_counts, tmp_path
    ):
        class FullDiskStore(ResultStore):
            def put(self, key, experiment):
                raise OSError("disk full")

        with ExecutionService(
            backend, jobs=2, store=FullDiskStore(tmp_path / "bad")
        ) as service:
            experiments, meta = service.run_jobs(fault_jobs)
        assert counts_of(experiments) == clean_counts
        assert meta["store_degraded"] is True
        assert service.stats()["store"]["errors"] == 1

    def test_store_read_failure_degrades_not_kills(
        self, backend, fault_jobs, clean_counts, tmp_path
    ):
        class UnreadableStore(ResultStore):
            def get(self, key):
                raise OSError("I/O error")

        with ExecutionService(
            backend, store=UnreadableStore(tmp_path / "bad")
        ) as service:
            experiments, meta = service.run_jobs(fault_jobs)
        assert counts_of(experiments) == clean_counts
        assert meta["store_degraded"] is True

    def test_torn_store_entry_is_a_counted_miss(
        self, backend, fault_jobs, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        with ExecutionService(backend, store=store) as service:
            service.run_jobs(fault_jobs[:1])
        (json_path,) = list(store.root.glob("??/*.json"))
        json_path.write_text("{ torn mid-write")
        fresh = ResultStore(store.root)
        with ExecutionService(backend, store=fresh) as service:
            experiments, _ = service.run_jobs(fault_jobs[:1])
        assert experiments[0] is not None
        assert fresh.errors == 1
        assert fresh.stats()["errors"] == 1


# ---------------------------------------------------------------------------
# cache statistics plumbing
# ---------------------------------------------------------------------------

def test_cache_stats_totals_shape():
    totals = cache_stats_totals()
    assert set(totals) == {"hits", "misses", "caches"}
    assert totals["hits"] >= 0 and totals["misses"] >= 0
