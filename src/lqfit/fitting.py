"""Plain linear policy fitting: minimize L(K) + r(K) over gains K."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conic_ls
from .conic_ls import LossSpec, RegularizerSpec, SingularFitError
from .linsys import DemoSet


@dataclass(frozen=True, eq=False)
class FitReport:
    """Fitted gain with its achieved objective L(K) + r(K)."""

    K: np.ndarray
    objective: float
    loss: LossSpec
    reg: RegularizerSpec


def fit_objective(demos: DemoSet, K: np.ndarray, loss: LossSpec,
                  reg: RegularizerSpec) -> float:
    """L(K) + r(K) for the given demonstrations, summed over the pairs in
    their canonical order (``DemoTerms``), so the same under any
    permutation of the pairs.  Raises ValueError unless K is m x n."""
    K = np.asarray(K, dtype=float)
    m, n = demos.inputs.shape[1], demos.states.shape[1]
    if K.shape != (m, n):
        raise ValueError(f"gain must be {m}x{n}, got shape {K.shape}")
    terms = demos.cached(conic_ls.demo_terms)
    E = terms.X @ K.T - terms.U
    if loss.kind == "quadratic":
        L = float(np.sum(E * E))
    else:
        L = float(np.sum(conic_ls.huber_value(E, loss.huber_m)))
    return L + reg.weight * float(np.sum(K * K))


def policy_fit(demos: DemoSet,
               loss: LossSpec = LossSpec("quadratic"),
               reg: RegularizerSpec = RegularizerSpec("ridge", 0.01)) -> FitReport:
    """Fit a linear policy to demonstrations by convex minimization.

    Quadratic loss with ridge is an exact linear solve; Huber loss runs
    IRLS around it.  With no regularization and rank-deficient noiseless
    data the quadratic fit falls back to the minimum-norm least-squares
    solution; for Huber loss that case raises SingularFitError.  Finite
    data whose fit overflows raise FloatingPointError.
    """
    try:
        K = conic_ls.solve_k_step(demos, loss, reg, rho=0.0)
    except SingularFitError:
        if loss.kind != "quadratic":
            raise
        terms = demos.cached(conic_ls.demo_terms)
        K = np.linalg.lstsq(terms.X, terms.U, rcond=None)[0].T
    if not np.all(np.isfinite(K)):
        raise FloatingPointError("the fitted gain is not finite")
    return FitReport(K=K, objective=fit_objective(demos, K, loss, reg),
                     loss=loss, reg=reg)

