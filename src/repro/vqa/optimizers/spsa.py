"""Simultaneous perturbation stochastic approximation (Spall 1992).

Two objective evaluations per iteration regardless of dimension, which is
why it is popular for pulse-level VQAs with large parameter spaces; it is
provided as an alternative to COBYLA for the extension experiments.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.utils.rng import as_generator
from repro.vqa.optimizers.base import Objective, Optimizer, OptimizerResult


class SPSA(Optimizer):
    """Standard first-order SPSA with asymptotic gain sequences.

    ``a_k = a / (k + 1 + A)^alpha``, ``c_k = c / (k + 1)^gamma``
    with Spall's recommended exponents alpha=0.602, gamma=0.101.
    """

    def __init__(
        self,
        maxiter: int = 100,
        a: float = 0.2,
        c: float = 0.1,
        alpha: float = 0.602,
        gamma: float = 0.101,
        seed: int | None = None,
    ) -> None:
        super().__init__(maxiter)
        self.a = a
        self.c = c
        self.alpha = alpha
        self.gamma = gamma
        self.seed = seed

    def _minimize(
        self,
        objective: Objective,
        x0: np.ndarray,
        bounds: Sequence[tuple[float, float]] | None,
    ) -> OptimizerResult:
        rng = as_generator(self.seed)
        x = np.array(x0, dtype=float)
        stability = 0.1 * self.maxiter
        best_x = x.copy()
        best_f = np.inf
        nfev = 0
        for k in range(self.maxiter):
            ak = self.a / (k + 1 + stability) ** self.alpha
            ck = self.c / (k + 1) ** self.gamma
            delta = rng.choice([-1.0, 1.0], size=x.shape)
            f_plus = objective(x + ck * delta)
            f_minus = objective(x - ck * delta)
            nfev += 2
            gradient = (f_plus - f_minus) / (2 * ck) * delta
            x = x - ak * gradient
            if bounds is not None:
                lo = np.array([b[0] for b in bounds])
                hi = np.array([b[1] for b in bounds])
                x = np.clip(x, lo, hi)
            current = min(f_plus, f_minus)
            if current < best_f:
                best_f = current
                best_x = x.copy()
        final = objective(best_x)
        nfev += 1
        if final < best_f:
            best_f = final
        return OptimizerResult(
            x=best_x,
            fun=float(best_f),
            nfev=nfev,
            nit=self.maxiter,
            success=True,
            message="SPSA finished",
        )
