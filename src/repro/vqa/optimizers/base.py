"""Optimizer interface.

All optimizers *minimise*; VQA drivers negate their maximisation
objective.  Bounds are handled by clipping inside the objective wrapper
so that every optimizer (including unconstrained scipy methods) respects
the physical parameter ranges (|amp| <= 1, phase in [0, 2 pi), frequency
in +-100 MHz) the paper defines for the hybrid model.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import OptimizerError

Objective = Callable[[np.ndarray], float]


@dataclass
class OptimizerResult:
    """Outcome of a minimisation."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int = 0
    success: bool = True
    message: str = ""
    history: list[float] = field(default_factory=list)
    #: the evaluation budget the optimizer ran with, when it has one
    budget: int | None = None


class Optimizer:
    """Base class; subclasses implement :meth:`_minimize`."""

    def __init__(self, maxiter: int = 50) -> None:
        if maxiter < 1:
            raise OptimizerError("maxiter must be positive")
        self.maxiter = int(maxiter)

    def minimize(
        self,
        objective: Objective,
        x0: Sequence[float],
        bounds: Sequence[tuple[float, float]] | None = None,
    ) -> OptimizerResult:
        x0 = np.asarray(x0, dtype=float)
        history: list[float] = []
        nfev = 0

        if bounds is not None:
            bounds = [(float(lo), float(hi)) for lo, hi in bounds]
            if len(bounds) != len(x0):
                raise OptimizerError("bounds length mismatch")
            lo = np.array([b[0] for b in bounds])
            hi = np.array([b[1] for b in bounds])
            x0 = np.clip(x0, lo, hi)
        else:
            lo = hi = None

        def wrapped(x: np.ndarray) -> float:
            nonlocal nfev
            point = np.asarray(x, dtype=float)
            if lo is not None:
                point = np.clip(point, lo, hi)
            value = float(objective(point))
            history.append(value)
            nfev += 1
            return value

        # batched protocol: objectives may expose `.many(points)` so
        # population-style optimizers (SPSA's paired perturbations)
        # score all candidates in one sharded pipeline call; evaluation
        # order is preserved, so histories and derived seeds match the
        # sequential path exactly
        raw_many = getattr(objective, "many", None)
        if raw_many is not None:
            def wrapped_many(points: Sequence[np.ndarray]) -> list[float]:
                nonlocal nfev
                clipped = [
                    np.clip(np.asarray(p, dtype=float), lo, hi)
                    if lo is not None
                    else np.asarray(p, dtype=float)
                    for p in points
                ]
                values = [float(v) for v in raw_many(clipped)]
                history.extend(values)
                nfev += len(values)
                return values

            wrapped.many = wrapped_many

        result = self._minimize(wrapped, x0, bounds)
        result.history = history
        result.nfev = nfev
        if lo is not None:
            result.x = np.clip(result.x, lo, hi)
        return result

    def _minimize(
        self,
        objective: Objective,
        x0: np.ndarray,
        bounds: Sequence[tuple[float, float]] | None,
    ) -> OptimizerResult:
        raise NotImplementedError
