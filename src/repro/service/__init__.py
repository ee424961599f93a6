"""Sharded execution service over the batched engine.

See SERVICE.md for the architecture: job specs (``jobs``), the
work-stealing shard planner and worker protocol (``scheduler``), the
futures facade with backpressure and fault recovery (``futures``), the
content-addressed result store (``store``) and the deterministic
fault-injection harness (``faults``).
"""

from repro.service.faults import (
    FaultInjected,
    FaultPolicy,
    FaultRule,
    PermanentFaultInjected,
)
from repro.service.jobs import (
    CircuitJob,
    JobFailure,
    SweepJob,
    backend_config_digest,
    circuit_fingerprint,
    derive_job_seeds,
    describe_job,
    job_fingerprint,
)
from repro.service.scheduler import plan_shards
from repro.service.futures import ExecutionService
from repro.service.store import ResultStore

__all__ = [
    "CircuitJob",
    "ExecutionService",
    "FaultInjected",
    "FaultPolicy",
    "FaultRule",
    "JobFailure",
    "PermanentFaultInjected",
    "ResultStore",
    "SweepJob",
    "backend_config_digest",
    "circuit_fingerprint",
    "derive_job_seeds",
    "describe_job",
    "job_fingerprint",
    "plan_shards",
]
