"""The three paper workloads, their output summaries, and output checks.

Every workload is one call of a ``repro.experiments`` entry point, configured
through ``ExperimentConfig``; the table2 workloads call ``table2.run`` with
``table2.BACKENDS`` cut to one column for the call.  Each returns a
*summary*: the approximation ratios, raw and PO mixer
durations it produced, as plain dicts keyed by ``/``-joined labels.  The
harness adds the evaluation count.  Summaries of two runs with the same
seed must be equal.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core import GateLevelModel, HybridGatePulseModel, PulseLevelModel
from repro.experiments import ExperimentConfig, fig5, table2
from repro.problems import MaxCutProblem, benchmark_graph

#: the paper's raw mixer duration and pulse granularity (samples, dt)
RAW_MIXER_DT = 320
GRANULARITY_DT = 32

#: fig5's COBYLA budgets.  At the paper's (maxiter 50, 200 for the
#: pulse-level model) one call takes about 60 s on a 2-CPU box, so a run
#: could time a single call, and the box's speed drifts by up to 1.6x over
#: such a span.  At these budgets a call takes about 8 s and a run repeats
#: it.  Each evaluation costs what it costs at the paper's budget, but the
#: hybrid stages weigh more: CR propagator solves take about half of a
#: call, against about 70 % at a pulse-level budget of 100.
FIG5_MAXITER = 8
#: the pulse-level model has 54 parameters: COBYLA needs at least 56
#: evaluations and raises a smaller budget to that, with a warning
FIG5_PULSE_MAXITER = 56


@dataclass
class TrackedConfig(ExperimentConfig):
    """An ``ExperimentConfig`` that remembers the backends the experiments build,
    so the benchmark can shut their worker pools down afterwards."""

    built: list = field(default_factory=list, repr=False, compare=False)

    def backend(self, name: str):
        backend = super().backend(name)
        self.built.append(backend)
        return backend

    def close(self) -> None:
        """Stop every worker pool the built backends started."""
        for backend in self.built:
            backend.close_services()
        self.built.clear()


# ---------------------------------------------------------------------------
# workload calls
# ---------------------------------------------------------------------------

def _task1() -> MaxCutProblem:
    return MaxCutProblem(benchmark_graph(1))


@contextmanager
def table2_backends(names: tuple[str, ...]) -> Iterator[None]:
    """Cut ``table2.BACKENDS`` to ``names`` for the block, then restore it."""
    saved = table2.BACKENDS
    table2.BACKENDS = names
    try:
        yield
    finally:
        table2.BACKENDS = saved


def column(name: str) -> Callable[[Callable], Callable]:
    """Run the decorated function with ``table2.run`` cut to column ``name``."""

    def decorate(function: Callable) -> Callable:
        @functools.wraps(function)
        def call(config: ExperimentConfig):
            with table2_backends((name,)):
                return function(config)

        return call

    return decorate


def fig5_toronto(config: ExperimentConfig) -> dict:
    result = fig5.run(config)
    return {
        "ars": {
            "pulse": result.pulse_ar,
            "hybrid": result.hybrid_ar,
            "hybrid+po": result.hybrid_po_ar,
        },
        "raw_mixer_dt": {
            "pulse": result.pulse_duration,
            "hybrid": result.hybrid_duration,
        },
        "po_mixer_dt": {"hybrid": result.hybrid_po_duration},
    }


def table2_grid(config: ExperimentConfig) -> dict:
    result = table2.run(config)
    return {
        "ars": {"/".join(key): ar for key, ar in result.ars.items()},
        "raw_mixer_dt": {
            "/".join(key): dt for key, dt in result.mixer_durations.items()
        },
        "po_mixer_dt": {
            f"{backend}/hybrid": dt
            for backend, dt in result.po_durations.items()
        },
    }


# ---------------------------------------------------------------------------
# set-up probes: what each workload constructs before its first evaluation
# ---------------------------------------------------------------------------

def _construct_fig5(config: ExperimentConfig) -> list:
    problem = _task1()
    backend = config.backend("toronto")
    return [
        backend,
        HybridGatePulseModel(problem, backend.device),
        PulseLevelModel(problem, backend),
    ]


def _construct_table2_grid(config: ExperimentConfig) -> list:
    problem = _task1()
    built = []
    for name in table2.BACKENDS:
        backend = config.backend(name)
        built += [
            backend,
            GateLevelModel(problem),
            HybridGatePulseModel(problem, backend.device),
        ]
    return built


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json and README.md say why."""

    name: str
    call: Callable[[ExperimentConfig], dict]
    construct: Callable[[ExperimentConfig], list]
    #: ExperimentConfig keyword arguments at full size
    settings: dict
    #: when set, the result must equal one untimed run at this ``jobs``
    reference_jobs: int | None = None

    def config(self, seed: int, tiny: bool = False, **overrides) -> TrackedConfig:
        kwargs = dict(self.settings, seed=seed)
        if tiny:
            kwargs.update(maxiter=2, pulse_maxiter=2, shots=64)
        kwargs.update(overrides)
        return TrackedConfig(**kwargs)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig5-toronto",
            call=fig5_toronto,
            construct=_construct_fig5,
            settings={
                "maxiter": FIG5_MAXITER,
                "pulse_maxiter": FIG5_PULSE_MAXITER,
            },
        ),
        Workload(
            name="table2-quick-jobs2",
            call=column("toronto")(table2_grid),
            construct=column("toronto")(_construct_table2_grid),
            settings={"quick": True, "jobs": 2},
            reference_jobs=1,
        ),
    )
}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_summary(summary: dict) -> list[str]:
    """Violations of the output checks; empty when the result is sound."""
    problems = []
    if not summary["ars"]:
        problems.append("no approximation ratios")
    for key, ar in summary["ars"].items():
        if not (isinstance(ar, float) and math.isfinite(ar) and 0 <= ar <= 1):
            problems.append(f"AR {key} = {ar!r} is not in [0, 1]")
    raw = summary["raw_mixer_dt"]
    for key, dt in raw.items():
        if dt != RAW_MIXER_DT:
            problems.append(f"raw mixer {key} = {dt} dt, not {RAW_MIXER_DT}")
    for key, dt in summary["po_mixer_dt"].items():
        if dt <= 0 or dt % GRANULARITY_DT:
            problems.append(
                f"PO mixer {key} = {dt} dt is not a positive multiple "
                f"of {GRANULARITY_DT}"
            )
        if dt > raw.get(key, RAW_MIXER_DT):
            problems.append(f"PO mixer {key} = {dt} dt exceeds its raw")
    if summary.get("evaluations", 0) < 1:
        problems.append("no circuit evaluations recorded")
    return problems


def compare_summaries(first: dict, other: dict, label: str) -> list[str]:
    """Differences between two summaries that must be identical."""
    problems = []
    for part in ("ars", "raw_mixer_dt", "po_mixer_dt", "evaluations"):
        if first.get(part) != other.get(part):
            problems.append(
                f"{label}: {part} differ: {first.get(part)!r} vs "
                f"{other.get(part)!r}"
            )
    return problems
