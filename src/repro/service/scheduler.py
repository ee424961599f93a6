"""Shard planning and the process-pool worker protocol.

The scheduler turns a list of :class:`~repro.service.jobs.CircuitJob`
specs into *shards* — contiguous index runs dispatched as single pool
tasks.  Planning is work-stealing by oversubscription: the batch splits
into more shards than workers (``shards_per_worker`` each, by default),
all shards go into the executor's shared queue, and faster workers
naturally pull more of them.  Contiguity matters: neighbouring sweep
points share pulse propagators and noise channels, so keeping them on
one worker keeps its caches hot.  :func:`plan_shards` balances shards
by job *count* (SERVICE.md "Scheduling").

Workers are plain ``ProcessPoolExecutor`` processes.  Each one builds its
backend exactly once via :func:`_initialize_worker` (from the fake-spec
name when possible, else from a pickled backend) and optionally warms
the PR-1 cache layers by executing a representative circuit with a
single shot.  Shard results carry per-worker cache hit/miss totals back
to the parent so the service can report them in its result metadata.
"""

from __future__ import annotations

import os
import pickle
import time
from collections.abc import Sequence
from contextlib import ExitStack
from dataclasses import dataclass

from repro.backends.engine import adopt_method_budgets
from repro.exceptions import BackendError, ReproError
from repro.service.faults import FaultPolicy
from repro.service.jobs import CircuitJob, describe_job
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry import records as telemetry_records
from repro.telemetry import spans as telemetry_spans
from repro.utils.cache import cache_stats_totals

__all__ = [
    "ShardResult",
    "plan_shards",
    "run_job_on_backend",
    "worker_backend_spec",
]

#: default oversubscription factor for work stealing
DEFAULT_SHARDS_PER_WORKER = 4


def plan_shards(
    num_jobs: int,
    workers: int,
    shards_per_worker: int = DEFAULT_SHARDS_PER_WORKER,
    min_shard_size: int = 1,
) -> list[list[int]]:
    """Split ``num_jobs`` job indices into balanced contiguous shards.

    Targets ``workers * shards_per_worker`` shards (work stealing needs
    spare shards for fast workers to grab) but never creates shards
    smaller than ``min_shard_size`` and never more shards than jobs.
    """
    if num_jobs <= 0:
        return []
    if workers < 1 or shards_per_worker < 1 or min_shard_size < 1:
        raise BackendError("workers/shards/shard size must be positive")
    target = min(
        num_jobs,
        workers * shards_per_worker,
        max(1, num_jobs // min_shard_size),
    )
    # at least one shard per worker when there is enough work
    target = max(target, min(workers, num_jobs))
    base, extra = divmod(num_jobs, target)
    shards: list[list[int]] = []
    start = 0
    for shard_index in range(target):
        size = base + (1 if shard_index < extra else 0)
        shards.append(list(range(start, start + size)))
        start += size
    return shards


@dataclass
class ShardResult:
    """What one pool task returns to the parent process."""

    #: ``(job_index, ExperimentResult)`` pairs, shard order
    experiments: list
    worker_pid: int
    #: cumulative per-worker cache totals {"hits", "misses", "caches"}
    cache_totals: dict
    wall_seconds: float
    jobs_run: int
    #: why this worker's warm-up failed, or ``None`` (it ran cold if set)
    warm_error: str | None = None
    #: wall-clock when the worker picked the shard up (queue-wait basis)
    started_at: float = 0.0
    #: this shard's telemetry-metrics delta (always shipped, like caches)
    metrics: dict | None = None
    #: serialized worker-side span trees (only when the parent traces)
    trace_spans: list | None = None
    #: buffered telemetry records (only when the parent records)
    records: list | None = None
    #: one-shot worker warm-up info {"wall_seconds", "error"}, shipped
    #: with this worker's FIRST shard only (the parent grafts it as a
    #: ``worker.warm`` span exactly once per worker)
    warm_info: dict | None = None


# ---------------------------------------------------------------------------
# worker-side state and entry points
# ---------------------------------------------------------------------------

#: per-process state: populated once by the pool initializer
_WORKER: dict = {}


def worker_backend_spec(backend) -> tuple[str, object]:
    """A picklable recipe for rebuilding ``backend`` in a worker.

    The *live* backend is pickled — never rebuilt from its name — so
    in-place customizations (tweaked noise parameters, edited device
    physics) survive the process boundary and ``jobs=N`` stays
    seed-identical to ``jobs=1`` even on modified backends.  The replica
    is bit-faithful: the engine draws every stochastic quantity from
    per-job seeds.
    """
    return ("pickle", pickle.dumps(backend))


def _realize_backend(spec: tuple[str, object]):
    kind, payload = spec
    if kind == "pickle":
        return pickle.loads(payload)
    raise BackendError(f"unknown backend spec kind {kind!r}")


def _initialize_worker(
    spec: tuple[str, object],
    warm_blob: bytes | None,
    method_budgets: dict | None = None,
    fault_policy: FaultPolicy | None = None,
) -> None:
    """Pool initializer: build the backend once per process and warm it.

    ``warm_blob`` is a pickled ``(circuit, method)`` pair from the first
    batch; executing the circuit with one shot — and, for the
    trajectory method, a single trajectory — populates the propagator,
    calibration, noise-channel and measure-duration caches that every
    subsequent shard on this worker will hit, without paying a full
    simulation (a big trajectory-method circuit must never be warmed
    through the 4^n density-matrix path).

    A warm-up failure must never break the pool initializer (the job's
    own run will surface any real error diagnosably), but it must not
    be silent either: the failure is recorded on the worker state and
    travels back to the parent with every shard result, surfacing as
    ``warm_error`` in the per-worker service metadata so an
    unexpectedly cold worker is visible instead of just slow.
    """
    backend = _realize_backend(spec)
    _WORKER["backend"] = backend
    _WORKER["fault_policy"] = fault_policy
    _WORKER["warm_error"] = None
    _WORKER["warm_info"] = None
    # a fork-started child inherits the parent's live telemetry state
    # (an active trace would make the shard's own collect_trace raise;
    # an inherited record sink would have many processes appending the
    # same file) — drop it; shards opt back in per dispatch
    telemetry_spans._reset_state()
    telemetry_records._reset_state()
    if method_budgets:
        # adopt the parent's per-method qubit budgets so the warm run's
        # "auto" resolves identically on both sides of the process
        # boundary (every later shard re-adopts the budgets current at
        # its dispatch, so parent-side changes after pool start-up are
        # seen too — see _run_shard)
        adopt_method_budgets(method_budgets)
    # with a fork start method the child inherits the parent's counters;
    # snapshot them so reported totals are this worker's own work
    if warm_blob is not None:
        circuit, method = pickle.loads(warm_blob)
        warm_start = time.perf_counter()
        try:
            if fault_policy is not None:
                # kill is disallowed here: a policy that killed every
                # warming worker could never build a pool at all
                fault_policy.apply("warm", -1, 0, allow_kill=False)
            backend.run(
                circuit, shots=1, seeds=[0], method=method, trajectories=1
            )
        except Exception as exc:
            _WORKER["warm_error"] = f"{type(exc).__name__}: {exc}"
        _WORKER["warm_info"] = {
            "wall_seconds": time.perf_counter() - warm_start,
            "error": _WORKER["warm_error"],
        }
    _WORKER["baseline"] = cache_stats_totals()


def _worker_cache_totals() -> dict:
    totals = cache_stats_totals()
    baseline = _WORKER.get("baseline")
    if baseline:
        totals = {
            "hits": totals["hits"] - baseline["hits"],
            "misses": totals["misses"] - baseline["misses"],
            "caches": totals["caches"],
        }
    return totals


def run_job_on_backend(backend, job: CircuitJob):
    """Execute one job spec on a live backend; returns the experiment.

    Shared by the pool workers and the inline (single-process) service
    path.  Failures of a *slice sub-job* are re-raised naming the
    parent job the slice was fanned out from: the budget/engine error
    alone names only the method and cap, which is useless to a caller
    who submitted whole jobs and never saw the slices.
    """
    try:
        result = backend.run(
            job.circuit,
            shots=job.shots,
            seeds=[job.seed],
            with_noise=job.with_noise,
            with_readout_error=job.with_readout_error,
            method=job.method,
            trajectories=job.trajectories,
            target_error=job.target_error,
            trajectory_slice=job.trajectory_slice,
            trajectory_batch=job.trajectory_batch,
            stabilizer_shot_batch=job.stabilizer_shot_batch,
        )
    except ReproError as exc:
        if job.trajectory_slice is None:
            raise
        slice_start, slice_stop = job.trajectory_slice
        raise type(exc)(
            f"{exc} (while running trajectory slice "
            f"[{slice_start}, {slice_stop}) of parent job "
            f"{describe_job(job)})"
        ) from exc
    return result.experiments[0]


def _run_shard(
    indexed_jobs: Sequence[tuple[int, CircuitJob, int]],
    method_budgets: dict | None = None,
    fault_policy: FaultPolicy | None = None,
    telemetry: tuple[bool, bool] = (False, False),
) -> ShardResult:
    """Pool task: execute one shard of jobs on this worker's backend.

    ``indexed_jobs`` entries are ``(unit_index, job, attempt)`` — the
    attempt number is assigned by the parent's retry loop and keys the
    deterministic fault policy, so injected chaos is identical no
    matter which worker a retry lands on.

    ``method_budgets`` is the parent's per-method qubit-budget snapshot
    taken when the shard was dispatched.  Adopting it here — rather
    than only once in the pool initializer — means
    ``set_method_qubit_budget`` calls made in the parent *after* the
    pool started still govern every job: budgets travel with the work,
    not with the worker.  The fault policy travels the same way and
    falls back to the pool initializer's copy.

    ``telemetry`` is a ``(collect_spans, collect_records)`` pair
    mirroring the parent's tracing/recording state at dispatch: the
    worker collects its own span trees / record buffer and ships them
    home in the result for the parent to graft and persist (workers
    never write the record sink themselves — one writer, no
    interleaving).  Metrics deltas always travel, like cache totals.
    Telemetry flags never reach the engine's RNG path, so shard results
    are byte-identical whatever the flags say.
    """
    backend = _WORKER.get("backend")
    if backend is None:
        raise BackendError("worker used before initialization")
    if method_budgets is not None:
        adopt_method_budgets(method_budgets)
    policy = (
        fault_policy
        if fault_policy is not None
        else _WORKER.get("fault_policy")
    )
    want_spans, want_records = telemetry
    metrics_base = telemetry_metrics.metrics_baseline()
    started_at = time.time()
    start = time.perf_counter()
    trace = None
    records_payload = None
    with ExitStack() as stack:
        if want_records:
            records_payload = stack.enter_context(
                telemetry_records.collect_records()
            )
        if want_spans:
            trace = stack.enter_context(
                telemetry_spans.collect_trace("shard")
            )
        experiments = _execute_indexed(backend, indexed_jobs, policy)
    trace_payload = (
        [root.as_dict() for root in trace.roots]
        if trace is not None
        else None
    )
    warm_info = _WORKER.get("warm_info")
    _WORKER["warm_info"] = None  # first shard only
    return ShardResult(
        experiments=experiments,
        worker_pid=os.getpid(),
        cache_totals=_worker_cache_totals(),
        wall_seconds=time.perf_counter() - start,
        jobs_run=len(experiments),
        warm_error=_WORKER.get("warm_error"),
        started_at=started_at,
        metrics=telemetry_metrics.metrics_delta(metrics_base),
        trace_spans=trace_payload,
        records=records_payload,
        warm_info=warm_info,
    )


def _execute_indexed(
    backend, indexed_jobs: Sequence[tuple[int, CircuitJob, int]], policy
) -> list:
    """The shard job loop (span per job when the worker is tracing)."""
    experiments = []
    for index, job, attempt in indexed_jobs:
        with telemetry_spans.span("job.run", index=index, attempt=attempt):
            if policy is not None:
                policy.apply("job", index, attempt, tag=job.tag)
            experiments.append((index, run_job_on_backend(backend, job)))
    return experiments
