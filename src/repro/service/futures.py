"""The execution service: a futures API over the batched engine.

:class:`ExecutionService` turns one in-process backend into a shardable
service::

    service = ExecutionService(backend, jobs=4)
    futures = [service.submit(job) for job in jobs]
    for future in service.as_completed(futures):
        counts = future.result().counts
    service.shutdown()

* ``jobs=1`` (the default) executes inline — no processes, no pickling,
  identical code path to ``backend.run``; every deployment has this
  graceful single-process fallback.
* ``jobs=N`` fans shards out to a ``ProcessPoolExecutor`` whose workers
  build the backend once per process and warm the propagator /
  calibration caches (see ``scheduler.py``).
* Batches are planned into contiguous, count-balanced shards
  (:func:`~repro.service.scheduler.plan_shards`), ``shards_per_worker``
  per worker so fast workers steal spare ones; shard composition never
  changes results.
* Results are **seed-identical** across worker counts: per-job seeds are
  resolved before sharding, and the engine derives every stochastic
  quantity from them.
* ``max_pending`` bounds in-flight jobs; :meth:`submit` blocks once the
  bound is reached (backpressure instead of unbounded queue growth).
* An optional :class:`~repro.service.store.ResultStore` serves repeated
  deterministic jobs from disk without touching a worker.

**Failure semantics** (SERVICE.md "Failure semantics"): shard failures
are classified through
:func:`~repro.backends.engine.classify_error` — transient ones retry
with exponential backoff up to ``retries`` times, a dead pool
(``BrokenProcessPool``) is rebuilt and its outstanding shards
resubmitted (falling back to inline execution after
``max_pool_rebuilds`` pool losses), hung shards are timed out
(``shard_timeout``) and their workers reclaimed, and a job that keeps
failing is bisected out of its shard and quarantined alone
(:class:`~repro.exceptions.QuarantineError`) while the rest of the
batch completes.  Deterministic jobs checkpoint into the store as each
shard completes, so a killed batch re-submitted with the same jobs
resumes from store hits and executes only the missing tail.  Every
retry re-runs the same :class:`CircuitJob` with its already-resolved
seed, so ``jobs=1`` vs ``jobs=N`` byte-identity survives every failure
mode; the recovery counters surface in
``result.metadata["service"]["faults"]``.
"""

from __future__ import annotations

import concurrent.futures
import logging
import os
import pickle
import threading
import time
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import replace

from repro.backends.engine import (
    classify_error,
    default_trajectory_count,
    merge_trajectory_results,
    method_qubit_budgets,
    select_method,
)
from repro.exceptions import BackendError, QuarantineError, TransientError
from repro.service.faults import FaultPolicy
from repro.service.jobs import (
    CircuitJob,
    JobFailure,
    SweepJob,
    backend_config_digest,
    job_fingerprint,
)
from repro.service.scheduler import (
    DEFAULT_SHARDS_PER_WORKER,
    ShardResult,
    _initialize_worker,
    _run_shard,
    plan_shards,
    run_job_on_backend,
    worker_backend_spec,
)
from repro.service.store import ResultStore
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry import records as telemetry_records
from repro.telemetry import spans as telemetry_spans
from repro.utils.cache import cache_stats_totals
from repro.utils.rng import derive_seed

__all__ = ["ExecutionService"]

_LOG = logging.getLogger("repro.service")

#: ceiling on one backoff sleep — retries must never stall a batch for
#: longer than a worker would have taken to just run the job
_MAX_BACKOFF_SECONDS = 2.0

#: fault-counter schema reported in ``metadata["service"]["faults"]``
_FAULT_COUNTERS = (
    "retries",
    "transient_errors",
    "timeouts",
    "pool_rebuilds",
)


class ExecutionService:
    """Submit / map / as_completed / shutdown over a worker pool."""

    def __init__(
        self,
        backend,
        jobs: int = 1,
        *,
        max_pending: int | None = None,
        store: ResultStore | str | None = None,
        shards_per_worker: int = DEFAULT_SHARDS_PER_WORKER,
        warm: bool = True,
        mp_context=None,
        retries: int = 3,
        retry_backoff: float = 0.05,
        shard_timeout: float | None = None,
        max_pool_rebuilds: int = 2,
        fault_policy: FaultPolicy | None = None,
    ) -> None:
        if jobs < 1:
            raise BackendError("jobs must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise BackendError("max_pending must be >= 1")
        if retries < 0:
            raise BackendError("retries must be >= 0")
        if retry_backoff < 0:
            raise BackendError("retry_backoff must be >= 0")
        if shard_timeout is not None and shard_timeout <= 0:
            raise BackendError("shard_timeout must be positive")
        if max_pool_rebuilds < 0:
            raise BackendError("max_pool_rebuilds must be >= 0")
        self.backend = backend
        self.workers = int(jobs)
        self.shards_per_worker = int(shards_per_worker)
        self.warm = warm
        self.store = (
            ResultStore(store) if isinstance(store, str) else store
        )
        #: max transient retries per job beyond its first attempt
        self.retries = int(retries)
        #: base of the exponential retry backoff, seconds
        self.retry_backoff = float(retry_backoff)
        #: per-unit wall-clock allowance; a shard of k units times out
        #: after ``k * shard_timeout`` seconds (``None`` = never)
        self.shard_timeout = shard_timeout
        #: broken-pool events tolerated before degrading to inline
        self.max_pool_rebuilds = int(max_pool_rebuilds)
        #: deterministic fault injection (chaos tests / recovery bench)
        self.fault_policy = fault_policy
        self._mp_context = mp_context
        self._executor: ProcessPoolExecutor | None = None
        self._max_pending = max_pending
        self._pending_slots = (
            threading.BoundedSemaphore(max_pending)
            if max_pending is not None
            else None
        )
        self._lock = threading.Lock()
        self._pending = 0
        self._closed = False
        self._backend_key: str | None = None
        self._store_degraded = False
        self._stats = {
            "jobs_submitted": 0,
            "jobs_run": 0,
            "shards_dispatched": 0,
            "store_hits": 0,
            "store_misses": 0,
            "max_pending_seen": 0,
            "per_worker": {},
            "retries": 0,
            "transient_errors": 0,
            "timeouts": 0,
            "pool_rebuilds": 0,
            "quarantined": 0,
            "inline_fallbacks": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def _ensure_executor(self, warm_job=None) -> ProcessPoolExecutor:
        if self._closed:
            raise BackendError("service is shut down")
        if self._executor is None:
            warm_blob = (
                pickle.dumps((warm_job.circuit, warm_job.method))
                if (self.warm and warm_job is not None)
                else None
            )
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._mp_context,
                initializer=_initialize_worker,
                # the budget snapshot keeps worker-side "auto"
                # resolution identical to the parent's even after
                # set_method_qubit_budget calls or spawn start methods
                initargs=(
                    worker_backend_spec(self.backend),
                    warm_blob,
                    method_qubit_budgets(),
                    self.fault_policy,
                ),
            )
        return self._executor

    def _rebuild_pool(self, kill: bool = False) -> None:
        """Discard the worker pool; the next dispatch builds a fresh one.

        ``kill=True`` terminates the worker processes first — the only
        way to reclaim a worker hung inside a shard, since a plain
        shutdown would wait on a task that never finishes.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is None:
            return
        if kill:
            for process in list(
                getattr(executor, "_processes", {}).values()
            ):
                try:
                    process.terminate()
                except Exception:
                    pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def start(self) -> "ExecutionService":
        """Eagerly start the worker pool and prove it can run a task.

        The pool is otherwise created lazily on first dispatch, so a
        broken multiprocessing environment would only surface mid-batch.
        This round-trips a no-op through a worker (running the pool
        initializer on the way) and raises here instead — the probe the
        examples use for their graceful single-process fallback.
        Inline services are a no-op.
        """
        if self.parallel:
            self._ensure_executor().submit(os.getpid).result()
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker pool; the service cannot be reused after."""
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None

    def __enter__(self) -> "ExecutionService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __del__(self) -> None:
        # backends cache services; when a backend is collected its pools
        # must not linger as idle worker processes
        try:
            self.shutdown(wait=False)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _job_started(self, count: int = 1) -> None:
        with self._lock:
            self._pending += count
            self._stats["max_pending_seen"] = max(
                self._stats["max_pending_seen"], self._pending
            )

    def _job_finished(self, count: int = 1) -> None:
        with self._lock:
            self._pending -= count
        if self._pending_slots is not None:
            for _ in range(count):
                self._pending_slots.release()

    def _acquire_slots(self, count: int = 1) -> None:
        if self._pending_slots is not None:
            for _ in range(count):
                self._pending_slots.acquire()

    def _absorb_shard(
        self, shard: ShardResult, dispatched_at: float | None = None
    ) -> None:
        with self._lock:
            self._stats["jobs_run"] += shard.jobs_run
            merged = dict(
                shard.cache_totals,
                wall_seconds=round(
                    shard.wall_seconds
                    + self._stats["per_worker"]
                    .get(shard.worker_pid, {})
                    .get("wall_seconds", 0.0),
                    6,
                ),
            )
            if shard.warm_error is not None:
                # the worker runs cold; say why instead of just "slow"
                merged["warm_error"] = shard.warm_error
            self._stats["per_worker"][shard.worker_pid] = merged
        self._absorb_shard_telemetry(shard, dispatched_at)

    def _absorb_shard_telemetry(
        self, shard: ShardResult, dispatched_at: float | None
    ) -> None:
        """Fold one shard's telemetry payloads into the parent process.

        Metrics deltas merge into the parent registry (like cache
        totals); buffered worker records persist here — the parent is
        the sink's only writer; worker span trees graft under a
        ``shard.dispatch`` span when a trace is being collected, after a
        ``worker.warm`` sibling for a worker's first shard.  Queue
        wait is worker pick-up time minus dispatch time (same-machine
        wall clocks, so the difference is meaningful).
        """
        telemetry_metrics.merge_snapshot(shard.metrics)
        telemetry_records.write_records(shard.records)
        queue_wait = None
        if dispatched_at is not None and shard.started_at:
            queue_wait = max(0.0, shard.started_at - dispatched_at)
            telemetry_metrics.observe(
                "service.queue_wait_seconds", queue_wait
            )
        if shard.trace_spans is None:
            return
        attrs = {
            "worker_pid": shard.worker_pid,
            "jobs": shard.jobs_run,
        }
        if queue_wait is not None:
            attrs["queue_wait_seconds"] = round(queue_wait, 6)
        if shard.warm_info is not None:
            # shipped with the worker's first shard only, so the warm-up
            # appears exactly once per worker in the trace; it ran before
            # the shard, outside the dispatch's wall, so it is the
            # dispatch's sibling, not its child
            telemetry_spans.record_span(
                "worker.warm",
                wall_seconds=float(shard.warm_info.get("wall_seconds", 0.0)),
                worker_pid=shard.worker_pid,
                error=shard.warm_info.get("error"),
            )
        telemetry_spans.record_span(
            "shard.dispatch",
            wall_seconds=shard.wall_seconds,
            children=shard.trace_spans,
            **attrs,
        )

    @staticmethod
    def _telemetry_flags() -> tuple[bool, bool]:
        """The (tracing, recording) state a shard dispatch should mirror."""
        return (
            telemetry_spans.tracing_enabled(),
            telemetry_records.recording_enabled(),
        )

    def _note_fault(self, faults: dict, key: str, count: int = 1) -> None:
        """Count one fault event in the batch dict and service totals."""
        faults[key] += count
        with self._lock:
            self._stats[key] += count
        telemetry_metrics.inc("service.faults", count, kind=key)
        telemetry_spans.record_span("service.fault", kind=key)

    def _backoff_seconds(self, attempt: int, unit_index: int) -> float:
        """Exponential backoff with deterministic jitter.

        Jitter derives from the fault-policy seed and the (unit,
        attempt) pair — never from entropy — so chaos runs reproduce
        their timing envelope; it only shapes wall-clock, results are
        seed-determined regardless.
        """
        if self.retry_backoff <= 0:
            return 0.0
        base = self.retry_backoff * (2 ** max(0, attempt - 1))
        seed = self.fault_policy.seed if self.fault_policy else 0
        frac = derive_seed(seed, "backoff", unit_index, attempt) / 2**32
        return min(base * (1.0 + frac), _MAX_BACKOFF_SECONDS)

    def stats(self) -> dict:
        """Service counters plus store, cache and telemetry statistics.

        ``store_degraded`` is always present (``False`` when no store is
        attached or it is healthy) and ``metrics`` carries the telemetry
        registry snapshot — including worker-merged ``store.errors`` /
        ``service.faults`` counters — so store degradation and fault
        pressure are visible without grepping logs.
        """
        with self._lock:
            out = {
                "workers": self.workers,
                "pending": self._pending,
                **{
                    k: (dict(v) if isinstance(v, dict) else v)
                    for k, v in self._stats.items()
                },
            }
        out["store_degraded"] = self._store_degraded
        if self.store is not None:
            out["store"] = self.store.stats()
        if not self.parallel:
            out["per_worker"] = {"inline": cache_stats_totals()}
        out["metrics"] = telemetry_metrics.metrics_snapshot()
        return out

    # ------------------------------------------------------------------
    # store access (degrades gracefully, never kills a batch)
    # ------------------------------------------------------------------
    def _degrade_store(self, operation: str, exc: BaseException) -> None:
        with self._lock:
            if self._store_degraded:
                return
            self._store_degraded = True
        self.store.note_error()
        telemetry_metrics.set_gauge("store.degraded", 1.0)
        telemetry_spans.record_span(
            "service.store_degraded", operation=operation
        )
        _LOG.warning(
            "result store %s failed (%s: %s); continuing without the "
            "store for this service",
            operation,
            type(exc).__name__,
            exc,
        )

    def _store_get(self, key: str | None):
        if key is None or self.store is None or self._store_degraded:
            return None
        with telemetry_spans.span("store.get") as store_span:
            try:
                experiment = self.store.get(key)
            except OSError as exc:
                self._degrade_store("read", exc)
                return None
            if store_span:
                store_span.annotate(hit=experiment is not None)
            return experiment

    def _store_put(self, key: str | None, experiment) -> None:
        if key is None or self.store is None or self._store_degraded:
            return
        with telemetry_spans.span("store.put"):
            try:
                self.store.put(key, experiment)
            except OSError as exc:
                self._degrade_store("write", exc)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _store_key(self, job: CircuitJob) -> str | None:
        if self.store is None:
            return None
        if self._backend_key is None:
            # name alone is ambiguous (two same-named backends may carry
            # different physics); the digest disambiguates them.  It is
            # snapshotted here — mutating the backend in place after the
            # first store access requires a fresh service.
            self._backend_key = (
                f"{getattr(self.backend, 'name', '')}:"
                f"{backend_config_digest(self.backend)}"
            )
        return job_fingerprint(
            job, self._backend_key, resolved_method=self._resolve_method(job)
        )

    def _resolve_method(self, job: CircuitJob) -> str:
        """The concrete method ``job`` will run under on this backend."""
        if job.method != "auto":
            return job.method
        try:
            return select_method(
                job.circuit,
                self.backend.target,
                self.backend.noise_model if job.with_noise else None,
                job.method,
            )
        except (BackendError, AttributeError):
            return job.method  # non-engine backend: keyed as-is

    def _store_lookup(self, job: CircuitJob):
        """(key, experiment|None): consult the store for one job."""
        key = self._store_key(job)
        if key is None:
            return None, None
        experiment = self._store_get(key)
        with self._lock:
            if experiment is not None:
                self._stats["store_hits"] += 1
            else:
                self._stats["store_misses"] += 1
        return key, experiment

    def _run_inline(self, job: CircuitJob):
        return run_job_on_backend(self.backend, job)

    def _execute_inline_with_retry(
        self, unit_index: int, job: CircuitJob, faults: dict
    ) -> tuple:
        """Run one job in this process, retrying transient failures.

        Returns ``(experiment, None, attempts_made)`` on success or
        ``(None, exc, attempts_made)`` once the failure is permanent or
        the retry budget is exhausted.  Fault injection applies with
        ``allow_kill=False`` — killing the caller's own process is
        never acceptable chaos.
        """
        attempt = 0
        while True:
            try:
                if self.fault_policy is not None:
                    self.fault_policy.apply(
                        "job",
                        unit_index,
                        attempt,
                        tag=job.tag,
                        allow_kill=False,
                    )
                experiment = self._run_inline(job)
            except Exception as exc:
                self._note_fault(faults, "transient_errors")
                if (
                    classify_error(exc) == "permanent"
                    or attempt >= self.retries
                ):
                    return None, exc, attempt + 1
                attempt += 1
                self._note_fault(faults, "retries")
                time.sleep(self._backoff_seconds(attempt, unit_index))
            else:
                with self._lock:
                    self._stats["jobs_run"] += 1
                return experiment, None, attempt + 1

    def _trajectory_subjobs(
        self, job: CircuitJob
    ) -> list[CircuitJob] | None:
        """Fan a trajectory-method job out as slice sub-jobs, or ``None``.

        Per-trajectory RNG derives from the job seed independently of
        the slicing, so the merged counts are byte-identical to running
        the whole range on one worker.  Adaptive jobs
        (``trajectories="auto"`` / ``target_error=``) never fan out:
        their total trajectory count is only known once the run
        converges, so they execute as one unit.
        """
        if job.trajectory_slice is not None:
            return None
        if isinstance(job.trajectories, str) or job.target_error is not None:
            return None
        if self._resolve_method(job) != "trajectory":
            return None
        total = (
            default_trajectory_count(job.shots)
            if job.trajectories is None
            else int(job.trajectories)
        )
        if total < 2:
            return None
        # honor the service's configured oversubscription factor — this
        # was once hardcoded to 2, which quietly ignored the caller's
        # shards_per_worker for trajectory fan-out
        slices = plan_shards(
            total, self.workers, shards_per_worker=self.shards_per_worker
        )
        if len(slices) < 2:
            return None
        # sub-jobs pin the *resolved* method: a worker must never
        # re-resolve "auto" differently and run a slice down the exact
        # path (which would return full-shot counts per slice)
        return [
            replace(
                job,
                method="trajectory",
                trajectories=total,
                trajectory_slice=(chunk[0], chunk[-1] + 1),
            )
            for chunk in slices
        ]

    def submit(self, job: CircuitJob) -> Future:
        """Schedule one job; returns a future of its ExperimentResult.

        Blocks while ``max_pending`` jobs are already in flight — the
        backpressure contract callers rely on instead of an unbounded
        submission queue.  Transient failures retry (rebuilding the
        pool if it broke) before the future resolves; only a permanent
        failure or an exhausted retry budget reaches the caller.
        """
        if self._closed:
            raise BackendError("service is shut down")
        if not isinstance(job, CircuitJob):
            raise BackendError(f"submit expects a CircuitJob, got {job!r}")
        with self._lock:
            self._stats["jobs_submitted"] += 1
        key, stored = self._store_lookup(job)
        if stored is not None:
            future: Future = Future()
            future.set_result(stored)
            return future
        self._acquire_slots()
        self._job_started()
        if not self.parallel:
            future = Future()
            faults = self._fresh_fault_counters()
            try:
                experiment, exc, _ = self._execute_inline_with_retry(
                    0, job, faults
                )
                if exc is not None:
                    future.set_exception(exc)
                else:
                    self._store_put(key, experiment)
                    future.set_result(experiment)
            except BaseException as exc:  # propagate through the future
                future.set_exception(exc)
            finally:
                self._job_finished()
            return future
        future = Future()
        try:
            self._submit_pooled(job, key, future, attempt=0)
        except BaseException:
            self._job_finished()
            raise
        return future

    def _submit_pooled(
        self, job: CircuitJob, key: str | None, future: Future, attempt: int
    ) -> None:
        """Dispatch one pooled attempt of ``job``; retries via callback.

        Owns exactly one backpressure slot across all attempts: the
        slot is released when ``future`` finally resolves (success,
        permanent failure, or exhausted retries), never between
        retries.
        """
        executor = self._ensure_executor(warm_job=job)
        with self._lock:
            self._stats["shards_dispatched"] += 1
        dispatched_at = time.time()
        shard_future = executor.submit(
            _run_shard,
            [(0, job, attempt)],
            method_qubit_budgets(),
            self.fault_policy,
            self._telemetry_flags(),
        )

        def _resolve(done: Future) -> None:
            try:
                shard: ShardResult = done.result()
                self._absorb_shard(shard, dispatched_at)
                experiment = shard.experiments[0][1]
                self._store_put(key, experiment)
            except BaseException as exc:
                if (
                    isinstance(exc, Exception)
                    and classify_error(exc) == "transient"
                    and attempt < self.retries
                    and not self._closed
                ):
                    faults = self._fresh_fault_counters()
                    self._note_fault(faults, "transient_errors")
                    self._note_fault(faults, "retries")
                    if isinstance(exc, BrokenExecutor):
                        self._note_fault(faults, "pool_rebuilds")
                        self._rebuild_pool()
                    time.sleep(self._backoff_seconds(attempt + 1, 0))
                    try:
                        self._submit_pooled(job, key, future, attempt + 1)
                    except BaseException as redispatch_exc:
                        future.set_exception(redispatch_exc)
                        self._job_finished()
                    return
                # includes store-write failures: the caller's future must
                # always resolve, never hang
                future.set_exception(exc)
                self._job_finished()
            else:
                future.set_result(experiment)
                self._job_finished()

        shard_future.add_done_callback(_resolve)

    @staticmethod
    def _fresh_fault_counters() -> dict:
        return {key: 0 for key in _FAULT_COUNTERS}

    def map(
        self, jobs: SweepJob | Sequence[CircuitJob]
    ) -> list:
        """Run a batch of jobs; ExperimentResults in submission order.

        The batch is planned into contiguous shards
        (:func:`~repro.service.scheduler.plan_shards`) and dispatched to
        the pool; store hits are served without touching a worker.
        """
        if isinstance(jobs, SweepJob):
            jobs = jobs.jobs()
        jobs = list(jobs)
        experiments, _meta = self.run_jobs(jobs)
        return experiments

    def run_jobs(
        self,
        jobs: Sequence[CircuitJob],
        *,
        return_exceptions: bool = False,
    ) -> tuple[list, dict]:
        """Ordered results plus the batch's service metadata.

        A job that fails permanently (or exhausts its retry budget) is
        *quarantined*: the rest of the batch still completes — and,
        with a store attached, checkpoints — before the failure
        surfaces.  By default that surfacing is a
        :class:`~repro.exceptions.QuarantineError` carrying one
        :class:`~repro.service.jobs.JobFailure` per dead job (plus the
        batch metadata as ``exc.service_meta``); with
        ``return_exceptions=True`` the failed jobs' result slots hold
        their :class:`JobFailure` records instead and no error is
        raised.
        """
        if self._closed:
            raise BackendError("service is shut down")
        jobs = list(jobs)
        with telemetry_spans.span(
            "service.run_jobs", jobs=len(jobs), workers=self.workers
        ):
            return self._run_jobs_inner(jobs, return_exceptions)

    def _run_jobs_inner(
        self, jobs: list, return_exceptions: bool
    ) -> tuple[list, dict]:
        with self._lock:
            self._stats["jobs_submitted"] += len(jobs)
        start = time.perf_counter()
        results: list = [None] * len(jobs)
        keys: list[str | None] = [None] * len(jobs)
        missing: list[int] = []
        for index, job in enumerate(jobs):
            key, stored = self._store_lookup(job)
            keys[index] = key
            if stored is not None:
                results[index] = stored
            else:
                missing.append(index)
        store_hits = len(jobs) - len(missing)

        faults = self._fresh_fault_counters()
        faults["inline_fallback"] = False
        failures: dict[int, JobFailure] = {}
        shard_count = 0
        subjob_count = 0
        scheduler_meta: dict = {}
        if missing and not self.parallel:
            for index in missing:
                experiment, exc, attempts_made = (
                    self._execute_inline_with_retry(
                        index, jobs[index], faults
                    )
                )
                if exc is not None:
                    failures[index] = JobFailure.from_exception(
                        index, jobs[index], exc, attempts_made
                    )
                    with self._lock:
                        self._stats["quarantined"] += 1
                    telemetry_metrics.inc("service.quarantines")
                    telemetry_spans.record_span(
                        "service.quarantine", index=index
                    )
                    continue
                results[index] = experiment
                self._store_put(keys[index], experiment)
        elif missing:
            # expand trajectory jobs into slice sub-jobs so a single
            # big trajectory circuit still saturates the pool; a *unit*
            # is whatever one worker executes in one piece
            units: list[CircuitJob] = []
            owner: list[int] = []
            for index in missing:
                sub_jobs = self._trajectory_subjobs(jobs[index])
                if sub_jobs is None:
                    units.append(jobs[index])
                    owner.append(index)
                else:
                    units.extend(sub_jobs)
                    owner.extend([index] * len(sub_jobs))
                    subjob_count += len(sub_jobs)
            shard_count, scheduler_meta = self._run_units_pooled(
                units, owner, jobs, keys, results, faults, failures
            )
        meta = {
            "jobs": len(jobs),
            "workers": self.workers if missing else 0,
            "shards": shard_count,
            "scheduler": scheduler_meta,
            "trajectory_subjobs": subjob_count,
            "store_hits": store_hits,
            "wall_seconds": round(time.perf_counter() - start, 6),
            "per_worker": self.stats()["per_worker"],
            "faults": {
                **{key: faults[key] for key in _FAULT_COUNTERS},
                "inline_fallback": faults["inline_fallback"],
                "quarantined": [
                    failures[index].as_dict() for index in sorted(failures)
                ],
            },
        }
        if self.store is not None:
            meta["store_degraded"] = self._store_degraded
        if telemetry_records.recording_enabled():
            telemetry_records.record(
                "batch",
                jobs=len(jobs),
                workers=meta["workers"],
                shards=shard_count,
                trajectory_subjobs=subjob_count,
                store_hits=store_hits,
                quarantined=len(failures),
                wall_seconds=meta["wall_seconds"],
                faults={key: faults[key] for key in _FAULT_COUNTERS},
            )
        if failures:
            ordered = [failures[index] for index in sorted(failures)]
            if return_exceptions:
                for index, failure in failures.items():
                    results[index] = failure
            else:
                survivors = len(jobs) - len(failures)
                error = QuarantineError(
                    f"{len(failures)} of {len(jobs)} jobs quarantined "
                    f"after retries ({survivors} completed"
                    + (
                        " and checkpointed to the store"
                        if self.store is not None
                        and not self._store_degraded
                        else ""
                    )
                    + "): "
                    + "; ".join(
                        f"#{f.index} {f.description}: {f.error}"
                        for f in ordered[:3]
                    )
                    + ("; ..." if len(ordered) > 3 else ""),
                    failures=ordered,
                )
                error.service_meta = meta
                raise error
        return results, meta

    def _run_units_pooled(
        self,
        units: list[CircuitJob],
        owner: list[int],
        jobs: Sequence[CircuitJob],
        keys: list[str | None],
        results: list,
        faults: dict,
        failures: dict[int, JobFailure],
    ) -> tuple[int, dict]:
        """Drive ``units`` through the pool with retry and recovery.

        Round-based: dispatch every queued shard, collect outcomes
        (bounded by ``shard_timeout``), then requeue failures — whole
        on their first transient failure, bisected afterwards so a
        poison job is narrowed down and quarantined alone.  A broken
        pool is rebuilt between rounds; after ``max_pool_rebuilds``
        broken-pool events the remaining units degrade to inline
        execution.  Completed owners checkpoint to the store
        immediately, not at batch end.  Returns the shard dispatch
        count and the scheduler metadata (shards planned, actual
        per-shard seconds, imbalance).
        """
        owner_units: dict[int, list[int]] = {}
        for pos, own in enumerate(owner):
            owner_units.setdefault(own, []).append(pos)
        owner_remaining = {
            own: len(members) for own, members in owner_units.items()
        }
        unit_results: list = [None] * len(units)
        attempts = [0] * len(units)
        broken_events = 0
        shard_count = 0
        inline_rest = False

        def complete_unit(unit: int, experiment) -> None:
            if unit_results[unit] is not None:
                return  # late result of a timed-out attempt already redone
            unit_results[unit] = experiment
            own = owner[unit]
            owner_remaining[own] -= 1
            if owner_remaining[own] == 0:
                # stitch sub-job slices back into the whole-job result
                # and checkpoint it NOW — a later crash must not lose it
                parts = [unit_results[p] for p in owner_units[own]]
                results[own] = merge_trajectory_results(parts)
                self._store_put(keys[own], results[own])

        def quarantine(unit: int, exc: BaseException) -> None:
            own = owner[unit]
            if own in failures:
                return
            failures[own] = JobFailure.from_exception(
                own, jobs[own], exc, attempts[unit]
            )
            with self._lock:
                self._stats["quarantined"] += 1
            telemetry_metrics.inc("service.quarantines")
            telemetry_spans.record_span("service.quarantine", index=own)

        queue = plan_shards(
            len(units),
            self.workers,
            shards_per_worker=self.shards_per_worker,
        )
        if self._max_pending is not None:
            # backpressure bound: no shard may need more in-flight
            # slots than the bound allows
            queue = [
                shard[pos : pos + self._max_pending]
                for shard in queue
                for pos in range(0, len(shard), self._max_pending)
            ]
        scheduler_meta = {"shards_planned": len(queue)}
        plan_span = telemetry_spans.record_span(
            "scheduler.plan", shards=len(queue), units=len(units)
        )
        shard_walls: list[float] = []

        while queue:
            # sibling slices of an already-quarantined job have nothing
            # left to contribute; drop them before dispatching
            queue = [
                [u for u in shard if owner[u] not in failures]
                for shard in queue
            ]
            queue = [shard for shard in queue if shard]
            if not queue or inline_rest:
                break
            retry_shards: list[list[int]] = []
            min_retry_attempt: int | None = None
            pool_broken = False
            timeout_hit = False

            def fail_shard(
                shard: list[int], exc: BaseException, permanent: bool
            ) -> None:
                nonlocal min_retry_attempt
                for u in shard:
                    attempts[u] += 1
                if len(shard) == 1:
                    unit = shard[0]
                    if permanent or attempts[unit] > self.retries:
                        quarantine(unit, exc)
                    else:
                        self._note_fault(faults, "retries")
                        retry_shards.append([unit])
                        min_retry_attempt = min(
                            attempts[unit],
                            min_retry_attempt or attempts[unit],
                        )
                elif permanent or max(attempts[u] for u in shard) >= 2:
                    # repeatedly-failing multi-job shard: bisect so the
                    # blame narrows to the offending job, which will be
                    # quarantined alone once isolated
                    mid = len(shard) // 2
                    self._note_fault(faults, "retries")
                    retry_shards.extend([shard[:mid], shard[mid:]])
                    min_retry_attempt = min(
                        min(attempts[u] for u in shard),
                        min_retry_attempt or attempts[shard[0]],
                    )
                else:
                    self._note_fault(faults, "retries")
                    retry_shards.append(list(shard))
                    min_retry_attempt = min(
                        min(attempts[u] for u in shard),
                        min_retry_attempt or attempts[shard[0]],
                    )

            try:
                executor = self._ensure_executor(
                    warm_job=units[queue[0][0]]
                )
            except BackendError:
                raise
            except Exception as exc:
                # the pool itself cannot be built: count it against the
                # rebuild budget and eventually degrade to inline
                broken_events += 1
                self._note_fault(faults, "pool_rebuilds")
                if broken_events > self.max_pool_rebuilds:
                    inline_rest = True
                _LOG.warning(
                    "worker pool construction failed (%s: %s)",
                    type(exc).__name__,
                    exc,
                )
                continue

            dispatched: list[tuple[list[int], Future, float, float]] = []
            for shard in queue:
                indexed = [(u, units[u], attempts[u]) for u in shard]
                self._acquire_slots(len(indexed))
                self._job_started(len(indexed))
                with self._lock:
                    self._stats["shards_dispatched"] += 1
                shard_count += 1
                try:
                    shard_future = executor.submit(
                        _run_shard,
                        indexed,
                        method_qubit_budgets(),
                        self.fault_policy,
                        self._telemetry_flags(),
                    )
                except BrokenExecutor as exc:
                    # the pool died under us mid-dispatch: this shard
                    # (and the rest of the round) will be retried on
                    # the rebuilt pool
                    self._job_finished(len(indexed))
                    pool_broken = True
                    self._note_fault(faults, "transient_errors")
                    fail_shard(shard, exc, permanent=False)
                    continue
                except BaseException:
                    # a failed dispatch must hand its backpressure
                    # slots back, or retries deadlock
                    self._job_finished(len(indexed))
                    raise
                shard_future.add_done_callback(
                    lambda done, n=len(indexed): self._job_finished(n)
                )
                dispatched.append(
                    (shard, shard_future, time.monotonic(), time.time())
                )

            for shard, shard_future, dispatch_time, dispatched_at in (
                dispatched
            ):
                budget = (
                    None
                    if self.shard_timeout is None
                    else self.shard_timeout * max(1, len(shard))
                )
                try:
                    if budget is None:
                        shard_result = shard_future.result()
                    else:
                        shard_result = shard_future.result(
                            timeout=max(
                                0.0,
                                dispatch_time
                                + budget
                                - time.monotonic(),
                            )
                        )
                except concurrent.futures.TimeoutError:
                    timeout_hit = True
                    self._note_fault(faults, "timeouts")
                    self._note_fault(faults, "transient_errors")
                    fail_shard(
                        shard,
                        TransientError(
                            f"shard of {len(shard)} unit(s) exceeded "
                            f"its {budget:.3g}s timeout"
                        ),
                        permanent=False,
                    )
                except BrokenExecutor as exc:
                    pool_broken = True
                    self._note_fault(faults, "transient_errors")
                    fail_shard(shard, exc, permanent=False)
                except Exception as exc:
                    permanent = classify_error(exc) == "permanent"
                    if not permanent:
                        self._note_fault(faults, "transient_errors")
                    fail_shard(shard, exc, permanent=permanent)
                else:
                    self._absorb_shard(shard_result, dispatched_at)
                    shard_walls.append(shard_result.wall_seconds)
                    for unit, experiment in shard_result.experiments:
                        complete_unit(unit, experiment)

            if pool_broken:
                broken_events += 1
                self._note_fault(faults, "pool_rebuilds")
                self._rebuild_pool(kill=False)
                if broken_events > self.max_pool_rebuilds:
                    inline_rest = True
            elif timeout_hit:
                # hung workers hold their tasks forever; terminating
                # them is the only way to reclaim the pool
                self._note_fault(faults, "pool_rebuilds")
                self._rebuild_pool(kill=True)
            queue = retry_shards
            if queue and not inline_rest and min_retry_attempt:
                time.sleep(
                    self._backoff_seconds(min_retry_attempt, queue[0][0])
                )

        if inline_rest and queue:
            # the pool is unrecoverable: graceful degradation to the
            # inline path for whatever is still outstanding
            with self._lock:
                self._stats["inline_fallbacks"] += 1
            faults["inline_fallback"] = True
            _LOG.warning(
                "worker pool failed %d time(s); executing the remaining "
                "%d unit(s) inline",
                broken_events,
                sum(len(shard) for shard in queue),
            )
            for shard in queue:
                for unit in shard:
                    if owner[unit] in failures:
                        continue
                    if unit_results[unit] is not None:
                        continue
                    experiment, exc, _ = self._execute_inline_with_retry(
                        unit, units[unit], faults
                    )
                    if exc is not None:
                        attempts[unit] += 1
                        quarantine(unit, exc)
                    else:
                        complete_unit(unit, experiment)
        if shard_walls:
            scheduler_meta["actual_shard_seconds"] = [
                round(wall, 6) for wall in shard_walls
            ]
            mean_wall = sum(shard_walls) / len(shard_walls)
            if mean_wall > 0.0:
                # 1.0 = perfectly level; the slowest shard's wall over
                # the mean is how much tail one shard adds to the batch
                imbalance = max(shard_walls) / mean_wall
                scheduler_meta["shard_imbalance"] = round(imbalance, 6)
                telemetry_metrics.set_gauge("shard.imbalance", imbalance)
        if plan_span is not None:
            plan_span.annotate(
                actual_seconds=scheduler_meta.get("actual_shard_seconds"),
                imbalance=scheduler_meta.get("shard_imbalance"),
            )
        return shard_count, scheduler_meta

    def run_batch(
        self,
        circuits: Sequence,
        shots: int,
        seeds: Sequence[int | None],
        with_noise: bool = True,
        with_readout_error: bool = True,
        method: str = "auto",
        trajectories: int | str | None = None,
        target_error: float | None = None,
        trajectory_batch: int | None = None,
        stabilizer_shot_batch: int | None = None,
    ) -> tuple[list, dict]:
        """The backend integration point: pre-resolved seeds in, ordered
        ExperimentResults + service metadata out."""
        jobs = [
            CircuitJob(
                circuit=circuit,
                shots=shots,
                seed=seed,
                with_noise=with_noise,
                with_readout_error=with_readout_error,
                method=method,
                trajectories=trajectories,
                target_error=target_error,
                trajectory_batch=trajectory_batch,
                stabilizer_shot_batch=stabilizer_shot_batch,
            )
            for circuit, seed in zip(circuits, seeds)
        ]
        return self.run_jobs(jobs)

    @staticmethod
    def as_completed(
        futures: Iterable[Future], timeout: float | None = None
    ) -> Iterator[Future]:
        """Yield futures as they finish (store hits come back first)."""
        return concurrent.futures.as_completed(futures, timeout=timeout)

    def __repr__(self) -> str:
        mode = f"{self.workers} workers" if self.parallel else "inline"
        return (
            f"ExecutionService({getattr(self.backend, 'name', '?')!r}, "
            f"{mode})"
        )
