"""Run one workload, closed loop, and turn what it did into metrics.

One workload call runs at a time in this process; the next starts after the
previous returns.  Every call builds its own backends, so repetitions do
the same work.  An untraced invocation reports the end-to-end metrics,
with its times scaled to a reference host speed;
a traced one runs the workload once untraced and once traced and reports
the per-layer metrics (see README.md).
"""

from __future__ import annotations

import ctypes
import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from repro.utils.cache import cache_stats_totals

from paperbench.layers import (
    EVALUATE,
    LAYER_PROBES,
    LAYER_UNITS,
    MIN_COVERAGE,
    layer_metrics,
)
from paperbench.tracing import Recorder, installed
from paperbench.workloads import (
    WORKLOADS,
    Workload,
    check_summary,
    compare_summaries,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "wall_s": "s",
    "evals_per_s": "1/s",
    "eval_ms_p50": "ms",
    "eval_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: fresh-process set-ups per invocation; setup_s is their median
SETUP_PROBES = 5

#: the reference host speed, as seconds per reference slice: a fixed
#: constant near the slice time on a 2-CPU host (README.md, "Host-speed
#: reference").  The end-to-end times are scaled by this over the mean
#: slice time of their own run.
REFERENCE_SLICE_S = 0.23
_REFERENCE_REPS = 2000
_REFERENCE_U = np.linalg.qr(
    np.random.default_rng(7).standard_normal((64, 64))
    + 1j * np.random.default_rng(8).standard_normal((64, 64))
)[0]

_SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
from paperbench.workloads import WORKLOADS
workload = WORKLOADS[sys.argv[3]]
workload.construct(workload.config(int(sys.argv[4])))
print(time.perf_counter() - start)
"""


@dataclass
class Call:
    """One workload call: its summary, wall clock and evaluation latencies."""

    summary: dict
    wall: float
    recorder: Recorder
    #: per-evaluation latencies; a k-circuit batch gives k of 1/k its time
    latencies_ms: list[float]
    #: (hits, misses) added to the program's LRU caches during the call
    cache_delta: tuple[int, int]


def run_call(workload: Workload, seed: int, traced: bool, tiny: bool = False,
             **overrides) -> Call:
    """Run the workload once; raises whatever the program raises."""
    config = workload.config(seed, tiny=tiny, **overrides)
    recorder = Recorder()
    probes = LAYER_PROBES if traced else (EVALUATE,)
    gc.collect()
    before = cache_stats_totals()
    try:
        with installed(probes, recorder), recorder.span("workload"):
            summary = workload.call(config)
        # read while the call's backends, which own the caches, are alive
        after = cache_stats_totals()
    finally:
        config.close()
    evaluations = [s for s in recorder.spans if s.name == "evaluate"]
    summary["evaluations"] = sum(s.items for s in evaluations)
    latencies = [
        1000 * s.duration / s.items for s in evaluations for _ in range(s.items)
    ]
    cache_delta = (
        after["hits"] - before["hits"],
        after["misses"] - before["misses"],
    )
    return Call(
        summary,
        recorder.spans[0].duration,
        recorder,
        latencies,
        cache_delta,
    )


def measure_setup(workload: Workload, seed: int) -> float:
    """Import ``repro`` and build the workload's backends and models in a
    fresh interpreter; returns the seconds that took."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_SNIPPET, str(SRC), str(ROOT),
         workload.name, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def reference_slice() -> float:
    """Seconds a fixed piece of work takes now: 64x64 complex products, as
    in a 6-qubit density-matrix pass, and interpreter work.  It uses no
    program code, so a change to the program cannot move it."""
    start = time.perf_counter()
    rho = np.eye(64, dtype=complex) / 64
    adjoint = _REFERENCE_U.conj().T
    total = 0.0
    for i in range(_REFERENCE_REPS):
        rho = _REFERENCE_U @ rho @ adjoint
        total += float(rho[i % 64, i % 64].real)
        total += sum({j: j * 0.5 for j in range(40)}.values())
    return time.perf_counter() - start


def _blas_threads() -> int | None:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        library = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
        text=True, timeout=30,
    )
    return done.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _stop_children(timeout: float = 30.0) -> None:
    """Join every child process still alive, terminating stragglers."""
    gc.collect()
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    calls: list[Call] = field(default_factory=list)

    def attempt(self, label: str, run, checks=()) -> Call | None:
        """Make one workload call; a raise or a failed check is a failure."""
        self.attempted += 1
        try:
            call = run()
        except Exception:
            self.failed += 1
            self.problems.append(f"{label} raised:\n{traceback.format_exc()}")
            return None
        problems = check_summary(call.summary)
        for reference in checks:
            problems += compare_summaries(reference.summary, call.summary, label)
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        return call


def log_centre(latencies: list[float]) -> float:
    """The centre of the latencies on a log scale, ``exp(mean(log))``.

    It is the median of a log-symmetric distribution.  The plain median is
    ill-conditioned on the paper workloads: an M3 evaluation costs about
    three times a raw/GO one, each of the two clusters holds close to half
    the evaluations, and the median jumps between them with the number of
    evaluations COBYLA spends in each stage (51 <-> 99 ms on one seed pair).
    A time-weighted median still jumped between the M3 stages' own clusters
    (118-162 ms over five seeds); the log centre moves smoothly with the
    mix (80-89 ms over the same seeds) and with every evaluation's cost.
    """
    return math.exp(statistics.fmean(math.log(ms) for ms in latencies))


def run_untraced(workload: Workload, seed: int, seconds: float,
                 tiny: bool = False) -> tuple[Outcome, dict, dict]:
    """Time repeated calls for about ``seconds``.

    Returns the outcome, the end-to-end metrics at the reference host speed,
    and the same metrics as the clock read them with the reference slices.
    """
    started = time.perf_counter()
    reference_slice()  # warm-up
    setup_slices = [reference_slice()]
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(measure_setup(workload, seed))
        setup_slices.append(reference_slice())
    outcome = Outcome()
    call_slices = [reference_slice()]
    while True:
        call = outcome.attempt(
            f"call {outcome.attempted + 1}",
            lambda: run_call(workload, seed, traced=False, tiny=tiny),
            checks=outcome.calls[:1],
        )
        call_slices.append(reference_slice())
        if call is None:
            break
        outcome.calls.append(call)
        mean_wall = statistics.fmean(c.wall for c in outcome.calls)
        if time.perf_counter() - started + mean_wall > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _stop_children()
    if not outcome.calls:
        return outcome, {}, {}
    # means over the run's calls: under bursty load from other tenants of a
    # shared 2-CPU host they held steadier from run to run than medians or
    # minima (README.md, "Means over calls")
    walls = [c.wall for c in outcome.calls]
    latencies = [ms for c in outcome.calls for ms in c.latencies_ms]
    evaluations = sum(c.summary["evaluations"] for c in outcome.calls)
    raw = {
        "wall_s": statistics.fmean(walls),
        "evals_per_s": evaluations / sum(walls),
        "eval_ms_p50": log_centre(latencies),
        "eval_ms_p90": float(np.percentile(latencies, 90)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    # how much slower than the reference host this run's host was
    call_slow = statistics.fmean(call_slices) / REFERENCE_SLICE_S
    setup_slow = statistics.fmean(setup_slices) / REFERENCE_SLICE_S
    metrics = dict(raw)
    for name in ("wall_s", "eval_ms_p50", "eval_ms_p90"):
        metrics[name] /= call_slow
    metrics["evals_per_s"] *= call_slow
    metrics["setup_s"] /= setup_slow
    raw["reference_slices_s"] = {"setup": setup_slices, "calls": call_slices}
    return outcome, metrics, raw


def run_traced(workload: Workload, seed: int,
               tiny: bool = False) -> tuple[Outcome, dict]:
    """One untraced then one traced call, and the untimed reference call
    when the workload has one; per-layer metrics of the traced call."""
    outcome = Outcome()
    plain = outcome.attempt(
        "untraced call", lambda: run_call(workload, seed, False, tiny)
    )
    if plain is None:
        return outcome, {}
    outcome.calls.append(plain)
    traced = outcome.attempt(
        "traced call",
        lambda: run_call(workload, seed, True, tiny),
        checks=[plain],
    )
    if workload.reference_jobs is not None:
        outcome.attempt(
            f"jobs={workload.reference_jobs} reference call",
            lambda: run_call(workload, seed, False, tiny,
                             jobs=workload.reference_jobs),
            checks=[plain],
        )
    _stop_children()
    if traced is None:
        return outcome, {}
    outcome.calls.append(traced)
    metrics = layer_metrics(
        traced.recorder,
        traced.summary["evaluations"],
        plain.wall,
        traced.cache_delta,
    )
    if metrics["trace.coverage"] < MIN_COVERAGE:
        # the calls passed their checks, but the trace misses a layer
        outcome.problems.append(
            f"traced call: layer metrics cover {metrics['trace.coverage']:.3f}"
            f" of its wall clock, under {MIN_COVERAGE}"
        )
    return outcome, metrics


def write_record(workload: Workload, seed: int, traced: bool, env: dict,
                 outcome: Outcome, metrics: dict, unscaled: dict) -> Path:
    """Keep the environment, summaries, metrics and spans of this run."""
    out = ROOT / ".paperbench"
    out.mkdir(exist_ok=True)
    path = out / f"{workload.name}-seed{seed}-trace{int(traced)}.json"
    record = {
        "workload": workload.name,
        "environment": env,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": metrics,
        "unscaled_metrics": unscaled,
        "summaries": [c.summary for c in outcome.calls],
        "walls_s": [c.wall for c in outcome.calls],
        "latencies_ms": [c.latencies_ms for c in outcome.calls],
    }
    if traced and len(outcome.calls) == 2:
        record["trace"] = outcome.calls[1].recorder.as_json()
    path.write_text(json.dumps(record, indent=1))
    return path


def main(workload_name: str, seed: int, seconds: float, traced: bool,
         tiny: bool = False) -> int:
    if workload_name not in WORKLOADS:
        print(
            f"paperbench: unknown workload {workload_name!r}; choose from "
            f"{', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[workload_name]
    env = environment(seed)
    print("environment: " + json.dumps(env), flush=True)
    unscaled = {}
    if traced:
        outcome, values = run_traced(workload, seed, tiny)
        units = LAYER_UNITS
    else:
        outcome, values, unscaled = run_untraced(workload, seed, seconds, tiny)
        units = END_TO_END_UNITS
    path = write_record(workload, seed, traced, env, outcome, values, unscaled)
    for problem in outcome.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}")
    header = f"{'metric':34s} {'value':>16s}  {'unit':12s}"
    print(header + (f"{'unscaled':>16s}" if unscaled else ""))
    for name, value in values.items():
        row = f"{name:34s} {value:16.6g}  {units[name]:12s}"
        print(row + (f"{unscaled[name]:16.6g}" if unscaled else ""))
    correct = not outcome.problems and values.keys() == units.keys()
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1
