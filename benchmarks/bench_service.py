"""Benchmarks for the sharded execution service.

Times the fig4 quick sweep (a gamma sweep of hybrid-QAOA circuits over
the paper's three benchmark graphs) through
:class:`~repro.service.futures.ExecutionService` at 1/2/4 workers, plus
the content-addressed store's replay path, and emits
``BENCH_service.json`` at the repo root next to ``BENCH_engine.json``::

    PYTHONPATH=src python benchmarks/bench_service.py
    # or under pytest:
    PYTHONPATH=src python -m pytest benchmarks/bench_service.py -q -s

Honesty notes recorded in the JSON: worker scaling is bounded by the
machine — the ``>= 2x at 4 workers`` assertion only applies when at
least 4 CPUs are actually available (``environment.cpu_count``); on
smaller machines the curve is still recorded so multi-core CI tracks
the trajectory.  Counts are asserted byte-identical across all worker
counts on every run, everywhere.
"""

import json
import math
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.backends import FakeGuadalupe
from repro.circuits import QuantumCircuit
from repro.core import ExecutionPipeline, HybridGatePulseModel
from repro.problems import MaxCutProblem, benchmark_graph
from repro.service import (
    ExecutionService,
    FaultPolicy,
    FaultRule,
    ResultStore,
    SweepJob,
)
from repro.vqa import ExpectedCutCost

#: bump when entry shapes change so downstream tooling can tell
#: (v5 drops cost_aware_vs_count_heterogeneous with the cost planner)
SCHEMA = {"name": "bench_service", "version": 5}

RESULTS: dict = {"schema": dict(SCHEMA)}
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_service.json"

SHOTS = 256
POINTS_PER_TASK = 8
SWEEP_SEED = 2023


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _best_of(fn, repeats=3):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _flush():
    RESULTS["environment"] = {
        "cpu_count": _cpu_count(),
        "sweep_circuits": 3 * POINTS_PER_TASK,
        "shots": SHOTS,
    }
    OUTPUT.write_text(json.dumps(RESULTS, indent=2) + "\n")


def fig4_quick_sweep(backend):
    """The fig4 quick sweep: gamma sweeps on the three benchmark graphs."""
    circuits = []
    for task in (1, 2, 3):
        problem = MaxCutProblem(benchmark_graph(task))
        model = HybridGatePulseModel(problem, backend.device)
        base = model.initial_point(task)
        pipeline = ExecutionPipeline(
            backend=backend,
            cost=ExpectedCutCost(problem),
            shots=SHOTS,
        )
        circuits.extend(
            pipeline.prepare(
                model.build_circuit(np.concatenate([[gamma], base[1:]]))
            )
            for gamma in np.linspace(0.3, 1.5, POINTS_PER_TASK)
        )
    return circuits


def test_bench_worker_scaling():
    """1/2/4-worker wall-clock curve on the fig4 quick sweep."""
    backend = FakeGuadalupe()
    sweep = SweepJob(
        fig4_quick_sweep(backend), shots=SHOTS, seed=SWEEP_SEED
    )
    cpus = _cpu_count()
    reference = None
    curve: dict[str, dict] = {}
    for workers in (1, 2, 4):
        service = ExecutionService(backend, jobs=workers)
        try:
            service.map(sweep)  # warm pool, caches and propagators
            seconds, results = _best_of(lambda: service.map(sweep))
        finally:
            service.shutdown()
        counts = [dict(r.counts) for r in results]
        if reference is None:
            reference = counts
            base_seconds = seconds
        else:
            assert counts == reference, (
                f"{workers}-worker counts diverged from 1-worker"
            )
        curve[str(workers)] = {
            "wall_ms": round(seconds * 1e3, 2),
            "speedup_vs_1worker": round(base_seconds / seconds, 2),
        }
        print(
            f"service fig4 quick sweep, {workers} workers: "
            f"{seconds * 1e3:.1f} ms "
            f"({base_seconds / seconds:.2f}x vs 1 worker)"
        )
    RESULTS["worker_scaling_fig4_quick_sweep"] = {
        **curve,
        "method": "auto (resolves to density_matrix)",
        "note": (
            "same seeds, byte-identical counts at every worker count; "
            "speedup ceiling is min(workers, cpu_count)"
        ),
    }
    _flush()
    speedup4 = curve["4"]["speedup_vs_1worker"]
    if cpus >= 4:
        assert speedup4 >= 2.0, (
            f"expected >=2x at 4 workers on a {cpus}-CPU machine, "
            f"got {speedup4}x"
        )
    elif cpus >= 2:
        assert curve["2"]["speedup_vs_1worker"] >= 1.3
    else:
        print(
            f"(single-CPU machine: scaling assertion skipped, "
            f"curve recorded for multi-core CI)"
        )


def test_bench_store_replay(tmp_path=None):
    """Cold sweep vs content-addressed store replay."""
    import tempfile

    backend = FakeGuadalupe()
    sweep = SweepJob(
        fig4_quick_sweep(backend), shots=SHOTS, seed=SWEEP_SEED
    )
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        with ExecutionService(backend, jobs=1, store=store) as service:
            t0 = time.perf_counter()
            cold = service.map(sweep)
            cold_seconds = time.perf_counter() - t0
            replay_seconds, warm = _best_of(lambda: service.map(sweep))
        assert [dict(r.counts) for r in cold] == [
            dict(r.counts) for r in warm
        ]
        assert store.hits >= len(sweep)
    speedup = cold_seconds / replay_seconds
    RESULTS["store_replay_fig4_quick_sweep"] = {
        "cold_ms": round(cold_seconds * 1e3, 2),
        "replay_ms": round(replay_seconds * 1e3, 2),
        "speedup": round(speedup, 2),
        "method": "auto (resolves to density_matrix)",
        "note": "repeated deterministic sweeps served from disk",
    }
    _flush()
    print(
        f"store replay: cold {cold_seconds * 1e3:.1f} ms -> "
        f"{replay_seconds * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= 2.0


def test_bench_trajectory_fanout():
    """A single 12-qubit trajectory job fanned out as slice sub-jobs.

    Counts are asserted byte-identical between ``jobs=1`` and
    ``jobs=4`` on every machine; the wall-clock curve is recorded so
    multi-core CI tracks the fan-out speedup (bounded by cpu_count,
    like the worker-scaling benchmark).
    """
    n = 12
    trajectories = 32
    circuit = QuantumCircuit(n, n)
    circuit.h(0)
    for i in range(n - 1):
        circuit.cx(i, i + 1)
    for i in range(n):
        circuit.measure(i, i)

    inline_backend = FakeGuadalupe()
    inline_seconds, inline_result = _best_of(
        lambda: inline_backend.run(
            circuit, shots=SHOTS, seed=SWEEP_SEED,
            method="trajectory", trajectories=trajectories,
        )
    )
    fanout_backend = FakeGuadalupe()
    try:
        fanout_backend.run(  # warm the pool
            circuit, shots=SHOTS, seed=SWEEP_SEED,
            method="trajectory", trajectories=trajectories, jobs=4,
        )
        fanout_seconds, fanout_result = _best_of(
            lambda: fanout_backend.run(
                circuit, shots=SHOTS, seed=SWEEP_SEED,
                method="trajectory", trajectories=trajectories, jobs=4,
            )
        )
    finally:
        fanout_backend.close_services()
    assert dict(fanout_result.get_counts()) == dict(
        inline_result.get_counts()
    ), "trajectory fan-out counts diverged from jobs=1"
    subjobs = fanout_result.metadata["service"]["trajectory_subjobs"]
    assert subjobs >= 2
    RESULTS["trajectory_fanout_12q"] = {
        "jobs1_wall_ms": round(inline_seconds * 1e3, 2),
        "jobs4_wall_ms": round(fanout_seconds * 1e3, 2),
        "speedup_vs_jobs1": round(inline_seconds / fanout_seconds, 2),
        "trajectory_subjobs": subjobs,
        "trajectories": trajectories,
        "method": "trajectory",
        "note": (
            "single 12-qubit noisy circuit split into trajectory-slice "
            "sub-jobs; byte-identical counts at any worker count, "
            "speedup ceiling is min(workers, cpu_count)"
        ),
    }
    _flush()
    print(
        f"trajectory fan-out 12q: jobs=1 {inline_seconds * 1e3:.1f} ms "
        f"-> jobs=4 {fanout_seconds * 1e3:.1f} ms "
        f"({inline_seconds / fanout_seconds:.2f}x, {subjobs} sub-jobs)"
    )


def test_bench_fault_recovery():
    """Recovery overhead: a worker SIGKILLed mid-batch vs a clean run.

    A deterministic kill fault takes one worker down on the batch's
    first shard attempt; the service rebuilds the pool and resubmits
    the lost shards.  Counts are asserted byte-identical to the clean
    run — recovery must be silent with respect to results — and the
    wall-clock overhead of the rebuild + resubmission is recorded.
    """
    backend = FakeGuadalupe()
    sweep = SweepJob(
        fig4_quick_sweep(backend), shots=SHOTS, seed=SWEEP_SEED
    )
    jobs = sweep.jobs()
    with ExecutionService(backend, jobs=2) as service:
        service.run_jobs(jobs)  # warm pool, caches and propagators
        clean_seconds, (clean, _) = _best_of(
            lambda: service.run_jobs(jobs)
        )
    # rate<1 with max_attempts=1: some first attempts die mid-shard,
    # the retried attempts run clean — one deterministic chaos episode
    policy = FaultPolicy(
        rules=(FaultRule("kill", rate=0.25, max_attempts=1),),
        seed=SWEEP_SEED,
    )
    with ExecutionService(
        backend, jobs=2, fault_policy=policy, retry_backoff=0.01
    ) as service:
        faulty_seconds, (recovered, meta) = _best_of(
            lambda: service.run_jobs(jobs)
        )
    assert [dict(r.counts) for r in recovered] == [
        dict(r.counts) for r in clean
    ], "recovered counts diverged from the clean run"
    assert meta["faults"]["pool_rebuilds"] >= 1
    overhead = faulty_seconds / clean_seconds
    RESULTS["fault_recovery_fig4_quick_sweep"] = {
        "clean_ms": round(clean_seconds * 1e3, 2),
        "recovered_ms": round(faulty_seconds * 1e3, 2),
        "overhead_factor": round(overhead, 2),
        "pool_rebuilds": meta["faults"]["pool_rebuilds"],
        "retries": meta["faults"]["retries"],
        "note": (
            "deterministic kill fault (rate=0.25, first attempts) on a "
            "2-worker batch; byte-identical counts after pool rebuild "
            "and shard resubmission"
        ),
    }
    _flush()
    print(
        f"fault recovery: clean {clean_seconds * 1e3:.1f} ms -> "
        f"killed-worker {faulty_seconds * 1e3:.1f} ms "
        f"({overhead:.2f}x, {meta['faults']['pool_rebuilds']} rebuilds)"
    )


def main(argv=None):
    import argparse

    global OUTPUT
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI quick mode: the trajectory fan-out benchmark only "
        "(byte-identical counts at jobs=1 and jobs=4); writes to a "
        "scratch file unless --output is given",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="override the result path (smoke mode defaults to a "
        "temp-dir scratch file so partial runs never clobber the "
        "tracked BENCH_service.json)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        OUTPUT = args.output or (
            Path(tempfile.gettempdir()) / "BENCH_service.smoke.json"
        )
        test_bench_trajectory_fanout()
        print(f"smoke ok; results in {OUTPUT}")
        return
    if args.output is not None:
        OUTPUT = args.output
    test_bench_worker_scaling()
    test_bench_store_replay()
    test_bench_trajectory_fanout()
    test_bench_fault_recovery()
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
