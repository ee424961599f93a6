"""``ExecutionService``: one persistent process pool per backend and
worker count (see the package docstring)."""

from __future__ import annotations

import os
import pickle
import time
from collections.abc import Sequence
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from contextlib import ExitStack

from repro.exceptions import BackendError
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry import records as telemetry_records
from repro.telemetry import spans as telemetry_spans

__all__ = ["ExecutionService", "shard_bounds"]

#: per-process worker state, set once by :func:`_initialize_worker`
_WORKER: dict = {}

#: the batch's run options its warm-up takes
_WARM_OPTIONS = ("method", "with_noise", "with_readout_error")


def shard_bounds(count: int, workers: int) -> list[tuple[int, int]]:
    """``[start, stop)`` of the contiguous shards a ``count``-circuit
    batch splits into: ``min(workers, count)`` of them, sizes within one
    of each other, larger shards first."""
    if count < 0 or workers < 1:
        raise BackendError(
            f"cannot split {count} circuits over {workers} workers"
        )
    shards = min(workers, count)
    size, extra = divmod(count, max(shards, 1))
    bounds = [0]
    for index in range(shards):
        bounds.append(bounds[-1] + size + (index < extra))
    return list(zip(bounds, bounds[1:]))


def _initialize_worker(backend_blob: bytes, warm_blob: bytes) -> None:
    """Pool initializer: unpickle the backend once and warm its memos
    with the batch's first circuit under the batch's options."""
    # a fork-started child inherits the parent's live telemetry state;
    # shards opt back in per dispatch
    telemetry_spans._reset_state()
    telemetry_records._reset_state()
    backend = pickle.loads(backend_blob)
    circuit, options = pickle.loads(warm_blob)
    start = time.perf_counter()
    error = None
    try:
        backend.run(circuit, shots=1, seeds=[0], **options)
    except Exception as exc:  # the circuit's own run raises it
        error = f"{type(exc).__name__}: {exc}"
    _WORKER["backend"] = backend
    _WORKER["warm"] = {
        "wall_seconds": time.perf_counter() - start,
        "error": error,
    }


def _run_shard(
    circuits: list,
    seeds: list,
    options: dict,
    telemetry: tuple[bool, bool],
) -> dict:
    """Pool task: run one contiguous shard on this worker's backend.

    ``telemetry`` mirrors the parent's (tracing, recording) state; the
    worker collects its spans and records and ships them home with its
    metrics delta.
    """
    want_spans, want_records = telemetry
    metrics_base = telemetry_metrics.metrics_baseline()
    start = time.perf_counter()
    trace = records = None
    with ExitStack() as stack:
        if want_records:
            records = stack.enter_context(
                telemetry_records.collect_records()
            )
        if want_spans:
            trace = stack.enter_context(
                telemetry_spans.collect_trace("shard")
            )
        result = _WORKER["backend"].run(circuits, seeds=seeds, **options)
    return {
        "experiments": result.experiments,
        "worker_pid": os.getpid(),
        "wall_seconds": time.perf_counter() - start,
        "metrics": telemetry_metrics.metrics_delta(metrics_base),
        "spans": None if trace is None else [
            root.as_dict() for root in trace.roots
        ],
        "records": records,
        # the warm-up rides with the worker's first shard only
        "warm": _WORKER.pop("warm", None),
    }


def _absorb_telemetry(shard: dict, circuits: int) -> None:
    """Fold one shard's metrics, records and spans into this process.

    The warm-up ran before the shard, outside its wall, so
    ``worker.warm`` is the dispatch's sibling, not its child.
    """
    telemetry_metrics.merge_snapshot(shard["metrics"])
    telemetry_records.write_records(shard["records"])
    if shard["spans"] is None:
        return
    pid = shard["worker_pid"]
    if shard["warm"] is not None:
        telemetry_spans.record_span(
            "worker.warm",
            wall_seconds=shard["warm"]["wall_seconds"],
            worker_pid=pid,
            error=shard["warm"]["error"],
        )
    telemetry_spans.record_span(
        "shard.dispatch",
        wall_seconds=shard["wall_seconds"],
        children=shard["spans"],
        worker_pid=pid,
        circuits=circuits,
    )


class ExecutionService:
    """A ``jobs``-process pool that runs batches for one backend."""

    def __init__(self, backend, jobs: int) -> None:
        if jobs < 1:
            raise BackendError(f"jobs must be >= 1, got {jobs}")
        self.backend = backend
        self.workers = int(jobs)
        self._executor: ProcessPoolExecutor | None = None
        #: set by :meth:`shutdown`; a closed service runs no batch
        self.closed = False

    def _pool(self, warm_circuit, warm_options: dict) -> ProcessPoolExecutor:
        if self.closed:
            raise BackendError(
                f"the {self.workers}-process service of "
                f"{getattr(self.backend, 'name', '?')!r} is shut down"
            )
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_initialize_worker,
                initargs=(
                    pickle.dumps(self.backend),
                    pickle.dumps((warm_circuit, warm_options)),
                ),
            )
        return self._executor

    def run_batch(
        self, circuits: Sequence, seeds: Sequence, **options
    ) -> tuple[list, dict]:
        """Run ``circuits`` at pre-resolved ``seeds`` across the pool.

        ``options`` are :meth:`SimulatedBackend.run` keywords (``shots``,
        ``method``, ...), applied to every circuit.  Returns the
        experiments in batch order and the batch's metadata.
        """
        circuits, seeds = list(circuits), list(seeds)
        if not circuits or len(seeds) != len(circuits):
            raise BackendError(
                f"a batch needs one seed per circuit and at least one "
                f"circuit, got {len(seeds)} for {len(circuits)}"
            )
        start = time.perf_counter()
        shards = shard_bounds(len(circuits), self.workers)
        flags = (
            telemetry_spans.tracing_enabled(),
            telemetry_records.recording_enabled(),
        )
        warm_options = {
            key: options[key] for key in _WARM_OPTIONS if key in options
        }
        failures: list[Exception] = []
        try:
            pool = self._pool(circuits[0], warm_options)
            futures = [
                pool.submit(
                    _run_shard, circuits[a:b], seeds[a:b], options, flags
                )
                for a, b in shards
            ]
        except BrokenExecutor as exc:
            futures, failures = [], [exc]
        # every shard is waited for and each finished one folded in, in
        # shard order, before the first failure is raised: a shard that
        # ran keeps its metrics, records and spans whatever its siblings do
        experiments: list = []
        for future, (a, b) in zip(futures, shards):
            try:
                shard = future.result()
            except Exception as exc:
                failures.append(exc)
                continue
            _absorb_telemetry(shard, b - a)
            experiments.extend(shard["experiments"])
        if any(isinstance(exc, BrokenExecutor) for exc in failures):
            self._drop_pool()
        if failures:
            first = failures[0]
            if isinstance(first, BrokenExecutor):
                raise BackendError(
                    f"a worker of the {self.workers}-process pool of "
                    f"{getattr(self.backend, 'name', '?')!r} died ({first});"
                    " the next batch starts a fresh pool"
                ) from first
            raise first
        meta = {
            "circuits": len(circuits),
            "workers": self.workers,
            "shards": len(shards),
            "wall_seconds": round(time.perf_counter() - start, 6),
        }
        telemetry_records.record(
            "batch",
            jobs=len(circuits),
            workers=self.workers,
            shards=len(shards),
            wall_seconds=meta["wall_seconds"],
        )
        return experiments, meta

    def _drop_pool(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def shutdown(self) -> None:
        """Stop and join the workers; the service runs no later batch."""
        self.closed = True
        self._drop_pool()
