"""COBYLA — the optimizer the paper uses (maxiter 50, §V-A)."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from scipy.optimize import minimize as scipy_minimize

from repro.vqa.optimizers.base import Objective, Optimizer, OptimizerResult


class COBYLA(Optimizer):
    """Constrained optimisation by linear approximation (via scipy).

    ``rhobeg`` sets the initial simplex scale; the QAOA angle landscape
    has period ~pi so the default of 0.5 explores without jumping basins.

    ``maxiter`` bounds the objective evaluations.  COBYLA needs at least
    ``n + 2`` of them for ``n`` parameters, so a smaller ``maxiter`` runs
    with ``n + 2``; the budget used is ``OptimizerResult.budget``.
    """

    def __init__(self, maxiter: int = 50, rhobeg: float = 0.5, tol: float = 1e-6) -> None:
        super().__init__(maxiter)
        self.rhobeg = rhobeg
        self.tol = tol

    def _minimize(
        self,
        objective: Objective,
        x0: np.ndarray,
        bounds: Sequence[tuple[float, float]] | None,
    ) -> OptimizerResult:
        # scipy would raise a budget below n + 2 itself, with a warning
        budget = max(self.maxiter, len(x0) + 2)
        result = scipy_minimize(
            objective,
            x0,
            method="COBYLA",
            options={
                "maxiter": budget,
                "rhobeg": self.rhobeg,
                "tol": self.tol,
            },
        )
        return OptimizerResult(
            x=np.asarray(result.x, dtype=float),
            fun=float(result.fun),
            nfev=int(result.get("nfev", 0)),
            nit=int(result.get("nfev", 0)),
            success=bool(result.success),
            message=str(result.message),
            budget=budget,
        )
