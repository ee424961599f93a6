"""The program's layers as probes, and the per-layer metrics of a trace.

Spans follow the call chain workload -> stage -> train -> evaluate ->
{prepare, backend.run, m3.apply, cost}, with build_circuit ->
pulse.cr_propagator and duration_search beside it.  Density-matrix
passes and pulse-gate unitaries are too frequent to span; they are
counted and timed as hot calls.  Worker processes of the execution
service are not traced: the parent sees ``service.run_batch`` only.
"""

from __future__ import annotations

import repro.core.workflow as core_workflow
from repro.backends.backend import SimulatedBackend
from repro.core.models import (
    GateLevelModel,
    HybridGatePulseModel,
    PulseLevelModel,
)
from repro.core.training import ExecutionPipeline
from repro.core.workflow import HybridWorkflow
from repro.experiments import fig5
from repro.mitigation.m3 import M3Mitigator
from repro.pulsesim.calibration import CRCalibration
from repro.service.futures import ExecutionService
from repro.simulators.density_matrix import DensityMatrix
from repro.vqa.cost import CostFunction

from paperbench.tracing import Probe, Recorder, totals_by_name


def _circuits(args: tuple, kwargs: dict) -> int:
    circuits = args[1] if len(args) > 1 else kwargs["circuits"]
    return len(circuits)


def _density_work(passes: int):
    """``passes`` full-state passes, each reading and writing the state."""

    def work(args: tuple, kwargs: dict) -> tuple[int, int]:
        return passes, passes * 2 * args[0].data.nbytes

    return work


#: the evaluation clock: the one probe untraced runs carry, since the
#: per-evaluation latency metrics are defined on it
EVALUATE = Probe(ExecutionPipeline, "evaluate_many", "evaluate", items=_circuits)

LAYER_PROBES = (
    EVALUATE,
    Probe(HybridWorkflow, "run_stage", "stage"),
    Probe(core_workflow, "train_model", "train"),
    Probe(fig5, "train_model", "train"),
    Probe(HybridWorkflow, "pulse_optimization", "duration_search"),
    Probe(fig5, "binary_search_mixer_duration", "duration_search"),
    Probe(ExecutionPipeline, "prepare", "prepare"),
    Probe(SimulatedBackend, "run", "backend.run"),
    Probe(ExecutionService, "run_batch", "service.run_batch"),
    Probe(M3Mitigator, "from_backend", "m3.build"),
    Probe(M3Mitigator, "apply", "m3.apply"),
    Probe(CostFunction, "evaluate_many", "cost"),
    Probe(GateLevelModel, "build_circuit", "build_circuit"),
    Probe(HybridGatePulseModel, "build_circuit", "build_circuit"),
    Probe(PulseLevelModel, "build_circuit", "build_circuit"),
    Probe(CRCalibration, "echoed_unitary", "pulse.cr_propagator"),
    Probe(SimulatedBackend, "x_calibration", "pulse.calibration"),
    Probe(SimulatedBackend, "cr_calibration", "pulse.calibration"),
    Probe(
        DensityMatrix,
        "apply_unitary",
        "density.unitary",
        kind="hot",
        work=_density_work(2),
    ),
    Probe(
        DensityMatrix,
        "apply_channel",
        "density.channel",
        kind="hot",
        work=_density_work(1),
    ),
    Probe(SimulatedBackend, "pulse_unitary", "pulse.unitary", kind="hot"),
)

#: a traced run with less of its wall clock in layer metrics fails
MIN_COVERAGE = 0.95

#: the self-time metrics that attribute time to a layer; ``trace.coverage``
#: is their sum over the wall clock.  ``workflow.stage_self_s`` is left out:
#: it is the workflow's own glue (pipeline construction, stage results),
#: reported so it cannot grow unseen, but not a layer's work.
COVERING = (
    "transpiler.prepare_s",
    "density.pass_s",
    "m3.apply_s",
    "m3.build_s",
    "pulse.cr_propagator_s",
    "pulse.unitary_s",
    "pulse.calibration_s",
    "backends.run_s",
    "cost.s",
    "models.build_circuit_s",
    "training.optimizer_self_s",
    "service.run_batch_s",
    "pipeline.evaluate_self_s",
)

#: per-layer metric -> unit; times are self times unless noted in README
LAYER_UNITS = {
    "transpiler.prepare_s": "s",
    "transpiler.prepare_ms_per_eval": "ms",
    "density.pass_s": "s",
    "density.passes_per_eval": "passes/eval",
    "density.unitary_calls_per_eval": "calls/eval",
    "density.channel_calls_per_eval": "calls/eval",
    "density.bytes_per_eval_computed": "B/eval",
    "m3.apply_s": "s",
    "m3.apply_calls": "count",
    "m3.ms_per_apply": "ms",
    "m3.build_s": "s",
    "pulse.cr_propagator_s": "s",
    "pulse.cr_propagators_per_eval": "calls/eval",
    "pulse.unitary_s": "s",
    "pulse.unitary_calls": "count",
    "pulse.calibration_s": "s",
    "cache.hit_ratio": "ratio",
    "backends.run_s": "s",
    "backends.run_calls": "count",
    "cost.s": "s",
    "models.build_circuit_s": "s",
    "duration_search.s": "s",
    "training.optimizer_self_s": "s",
    "service.run_batch_s": "s",
    "service.batches": "count",
    "pipeline.evaluate_self_s": "s",
    "workflow.stage_self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(
    recorder: Recorder,
    evaluations: int,
    untraced_wall: float,
    cache_delta: tuple[int, int],
) -> dict[str, float]:
    """Per-layer metrics of one traced workload call.

    ``recorder`` must hold one ``workload`` root span; ``cache_delta``
    is the (hits, misses) change of ``cache_stats_totals()`` over it.
    """
    by_name = totals_by_name(recorder.spans)

    def own(name: str) -> float:
        return by_name.get(name, {}).get("self", 0.0)

    def count(name: str) -> int:
        return int(by_name.get(name, {}).get("count", 0))

    def per_eval(value: float) -> float:
        return value / evaluations

    density = ("density.unitary", "density.channel")
    m3_calls = count("m3.apply")
    hits, misses = cache_delta
    wall = by_name["workload"]["total"]
    values = {
        "transpiler.prepare_s": own("prepare"),
        "transpiler.prepare_ms_per_eval": per_eval(1000 * own("prepare")),
        "density.pass_s": sum(recorder.hot_seconds[n] for n in density),
        "density.passes_per_eval": per_eval(
            sum(recorder.passes[n] for n in density)
        ),
        "density.unitary_calls_per_eval": per_eval(
            recorder.calls["density.unitary"]
        ),
        "density.channel_calls_per_eval": per_eval(
            recorder.calls["density.channel"]
        ),
        "density.bytes_per_eval_computed": per_eval(
            sum(recorder.bytes[n] for n in density)
        ),
        "m3.apply_s": own("m3.apply"),
        "m3.apply_calls": m3_calls,
        "m3.ms_per_apply": (
            1000 * own("m3.apply") / m3_calls if m3_calls else 0.0
        ),
        "m3.build_s": own("m3.build"),
        "pulse.cr_propagator_s": own("pulse.cr_propagator"),
        "pulse.cr_propagators_per_eval": per_eval(
            count("pulse.cr_propagator")
        ),
        "pulse.unitary_s": recorder.hot_seconds["pulse.unitary"],
        "pulse.unitary_calls": recorder.calls["pulse.unitary"],
        "pulse.calibration_s": own("pulse.calibration"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "backends.run_s": own("backend.run"),
        "backends.run_calls": count("backend.run"),
        "cost.s": own("cost"),
        "models.build_circuit_s": own("build_circuit"),
        # inclusive: the search's own work is only parameter rescaling
        "duration_search.s": by_name.get("duration_search", {}).get(
            "total", 0.0
        ),
        "training.optimizer_self_s": own("train"),
        "service.run_batch_s": own("service.run_batch"),
        "service.batches": count("service.run_batch"),
        "pipeline.evaluate_self_s": own("evaluate"),
        "workflow.stage_self_s": own("stage"),
    }
    values["trace.coverage"] = sum(values[m] for m in COVERING) / wall
    values["trace.overhead_ratio"] = wall / untraced_wall
    assert values.keys() == LAYER_UNITS.keys()
    return values
