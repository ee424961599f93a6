"""The worker pool behind ``SimulatedBackend.run(circuits, jobs=N)``.

Only a multi-circuit batch at ``jobs > 1`` reaches the pool; a single
circuit, or any batch at ``jobs=1``, runs inline in the calling
process.  On the paper drivers the pooled batches are the Step-I mixer
duration search's, two circuits per candidate duration.

* **Byte-identical results at any ``jobs``.** ``SimulatedBackend.run``
  resolves every circuit's shot seed before the batch is split, and the
  engine derives every stochastic quantity from that seed, so a circuit
  samples the same counts in any worker as inline.
* **One pool per backend and worker count.**
  ``backend.execution_service(jobs)`` builds an
  :class:`~repro.service.futures.ExecutionService` on first use and
  reuses it for every later batch, so an optimizer run pays the pool
  start-up once.  A batch splits into at most ``jobs`` contiguous
  shards (:func:`~repro.service.futures.shard_bounds`), one pool task
  each; results come back in batch order.
* **The live backend, pickled.** Each worker unpickles the backend
  once, when the pool starts, so in-place edits of its noise model or
  device physics made before then reach the workers; after a later
  edit, ``backend.close_services()`` makes the next batch start from
  the edited backend.
* **A one-shot warm-up.** A new worker runs the first circuit of the
  batch that started the pool, with that batch's ``method``,
  ``with_noise`` and ``with_readout_error``, at one shot before its
  first shard, filling the propagator, calibration and noise-channel
  memos it will hit.  A failed warm-up is only noted on the
  ``worker.warm`` span; the circuit's own run raises the error.
* **Loud failures.** A worker's exception reaches the caller with its
  type, after every shard has finished and each one that succeeded has
  been folded in (its telemetry below); the first failing shard's error
  is raised.  A dead worker raises
  :class:`~repro.exceptions.BackendError` and drops the pool, so the
  next batch starts a fresh one.  Nothing retries or falls back.
* **Telemetry.** Worker metrics merge into the parent's metrics registry,
  buffered records go to the parent's sink, and when the parent traces,
  each shard's span tree arrives under a ``shard.dispatch`` span, with a
  ``worker.warm`` sibling for a worker's first shard (TELEMETRY.md).
* **``backend.close_services()``** shuts down and joins every worker
  the backend started.  A shut-down service refuses later batches with
  :class:`~repro.exceptions.BackendError`; the backend forgets it, so
  its next ``jobs > 1`` batch builds a fresh one.
"""

from repro.service.futures import ExecutionService, shard_bounds

__all__ = ["ExecutionService", "shard_bounds"]
