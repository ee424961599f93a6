"""Step I: binary search for the minimal mixer-pulse duration.

The paper (§IV-B) initialises the parametric mixer pulse at a multiple of
32 dt (the Gaussian-waveform granularity) and binary-searches the minimal
duration that "maintains the good performance of the model".  Concretely
a candidate duration is *feasible* when

1. the mixer can still reach a pi rotation within the |amp| <= 1
   hardware bound (shorter pulses need proportionally larger amplitude),
2. the approximation ratio, re-evaluated with the trained parameters
   amplitude-rescaled to the candidate duration, stays within
   ``tolerance`` of the reference AR.

The compressed pulse drives harder, so the Duffing AC-Stark distortion
grows as 1/duration^2 — that is the physical wall the search finds; with
the repository's default device it lands at 128 dt, the paper's number
(60 % below the 320 dt raw mixer).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.models import HybridGatePulseModel
from repro.core.training import ExecutionPipeline
from repro.exceptions import ProblemError
from repro.pulse.waveforms import GAUSSIAN_GRANULARITY
from repro.utils.rng import derive_seed


@dataclass
class DurationSearchResult:
    """Outcome of the Step-I binary search."""

    duration: int
    reference_duration: int
    reference_value: float
    evaluations: dict[int, float] = field(default_factory=dict)
    infeasible: dict[int, str] = field(default_factory=dict)

    @property
    def reduction(self) -> float:
        """Fractional duration saving vs. the reference."""
        return 1.0 - self.duration / self.reference_duration


def binary_search_mixer_duration(
    model: HybridGatePulseModel,
    pipeline: ExecutionPipeline,
    trained_parameters: np.ndarray,
    tolerance: float = 0.02,
    minimum: int = GAUSSIAN_GRANULARITY,
    seed: int | None = None,
    evaluations_per_point: int = 2,
) -> DurationSearchResult:
    """Find the minimal feasible mixer duration (multiple of 32 dt).

    Each candidate's ``evaluations_per_point`` repetitions go through
    :meth:`ExecutionPipeline.evaluate_many` as one batch, which
    ``pipeline.jobs > 1`` splits across worker processes (the amplitude
    feasibility check is a pure-math pre-gate that costs no
    executions); seeds derive exactly as a sequential loop's, so the
    search is identical for any worker count.
    """
    reference = model.mixer_pulse_duration
    if reference % GAUSSIAN_GRANULARITY or minimum % GAUSSIAN_GRANULARITY:
        raise ProblemError("durations must be multiples of 32 dt")
    problem = model.problem

    def evaluate(duration: int, salt: int) -> float:
        # the model sits at the reference duration between calls, so the
        # amplitude rescale is computed reference -> candidate
        values = model.rescaled_parameters(trained_parameters, duration)
        saved = model.mixer_pulse_duration
        model.set_mixer_duration(duration)
        try:
            # all repetitions go through the batched pipeline in one
            # call; the per-rep seeds are derived exactly as the old
            # sequential loop derived them, so results are unchanged
            circuits = [
                model.build_circuit(values)
                for _ in range(evaluations_per_point)
            ]
            rep_seeds = [
                derive_seed(seed, "dsearch", duration, salt, rep)
                for rep in range(evaluations_per_point)
            ]
            scores = [
                value
                for value, _ in pipeline.evaluate_many(
                    circuits, seeds=rep_seeds
                )
            ]
            return float(np.mean(scores))
        finally:
            model.set_mixer_duration(saved)

    result = DurationSearchResult(
        duration=reference,
        reference_duration=reference,
        reference_value=0.0,
    )
    result.reference_value = evaluate(reference, 0)
    result.evaluations[reference] = result.reference_value
    threshold = result.reference_value - tolerance * problem.maximum_cut()

    def feasible(duration: int) -> bool:
        # hardware amplitude bound: a pi rotation must stay reachable
        if model.max_mixer_rotation(duration) < np.pi:
            result.infeasible[duration] = "amp > 1 for pi rotation"
            return False
        try:
            value = evaluate(duration, 1)
        except ProblemError as exc:
            result.infeasible[duration] = str(exc)
            return False
        result.evaluations[duration] = value
        if value < threshold:
            result.infeasible[duration] = (
                f"AR dropped to {value:.3f} < {threshold:.3f}"
            )
            return False
        return True

    candidates = list(
        range(minimum, reference + 1, GAUSSIAN_GRANULARITY)
    )
    lo, hi = 0, len(candidates) - 1  # candidates[hi] == reference: feasible
    best = reference
    while lo <= hi:
        mid = (lo + hi) // 2
        duration = candidates[mid]
        if duration == reference or feasible(duration):
            best = duration
            hi = mid - 1
        else:
            lo = mid + 1
    result.duration = best
    return result
