"""Policy fitting under a Kalman (LQR-optimality) constraint.

Solves

    minimize   L(K) + r(K)
    subject to Q + A^T P (A + B K) - P = 0
               R K + B^T P (A + B K)   = 0
               P >= 0,  Q >= 0,  R >= I

with variables (K, P, Q, R).  The constraints are bi-affine, so the
problem is attacked with the alternating direction method of multipliers
on the augmented Lagrangian: a K step (regularized policy fit), a
(P, Q, R) step (cone-constrained least squares), and a dual update on the
stacked constraint residual.  This is a heuristic: it need not converge,
and non-convergence is reported, not raised.  Two runs are made, from
the zero initialization (P = Q = 0) and from the identity initialization
(P = Q = R = I), and the gain with the lowest fitted objective wins.  The
K step never reads the previous K, so restarts that differ only in K
would repeat the identity start's iterates from the first sweep on: the
initial P, Q and R are all that set a run apart.

The starts advance in lockstep: each sweep runs the K step start by start
and then one (P, Q, R) step for all starts still running, so the
per-call overhead of the small cone solves is paid once per sweep instead
of once per start.  A start that stops or diverges leaves the batch.  The
results are unchanged: every start's iterates are bit for bit those of
running it alone.

Besides the raw final iterate K, each report carries ``K_certified``: the
gain re-synthesized by solving the Riccati equation with the recovered
(Q, R), which satisfies the optimality constraints exactly and inherits
LQR stability margins whenever the re-solve succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import conic_ls, fitting, riccati
from .conic_ls import LossSpec, RegularizerSpec
from .linsys import DemoSet, LinearDynamics


@dataclass(frozen=True)
class AdmmConfig:
    """Parameters of the alternating-direction fitting loop.

    ``rho`` is the penalty weight, ``n_iter`` the iteration cap, ``eps``
    the Frobenius threshold on successive gains for early termination,
    ``pqr_iters`` and ``pqr_tol`` bound the inner cone-least-squares
    solver per iteration.  The starts are fixed; see ``fit_kalman``.
    """

    rho: float = 1.0
    n_iter: int = 200
    eps: float = 1e-6
    pqr_iters: int = 40
    pqr_tol: float = 1e-11

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.n_iter < 1:
            raise ValueError("n_iter must be at least 1")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")


@dataclass(frozen=True, eq=False)
class AdmmState:
    """One iterate of the alternating-direction loop (dual blocks Y1, Y2)."""

    K: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Y1: np.ndarray
    Y2: np.ndarray
    iter: int = 0
    pqr_dual: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True, eq=False)
class KalmanFitReport:
    """Result of the constrained fit.

    ``K`` is the final iterate of the winning run (the algorithm's own
    output); ``K_certified`` re-solves the LQR problem for the recovered
    (Q, R) and is None only if that re-solve failed.  ``certificate``
    holds the final (P, Q, R) with the constraint residual at ``K``.
    """

    K: np.ndarray
    K_certified: np.ndarray | None
    certificate: riccati.KalmanCertificate
    objective: float
    converged: bool
    iterations: int
    init_index: int

    def to_dict(self) -> dict:
        return {
            "K": self.K.tolist(),
            "K_certified": None if self.K_certified is None
            else self.K_certified.tolist(),
            "P": self.certificate.P.tolist(),
            "Q": self.certificate.Q.tolist(),
            "R": self.certificate.R.tolist(),
            "residual": self.certificate.residual,
            "objective": self.objective,
            "converged": self.converged,
            "iterations": self.iterations,
            "init_index": self.init_index,
        }


def zero_state(dyn: LinearDynamics) -> AdmmState:
    """The zero initialization: K = 0, P = Q = 0, R = I, Y = 0."""
    n, m = dyn.n, dyn.m
    return AdmmState(K=np.zeros((m, n)), P=np.zeros((n, n)),
                     Q=np.zeros((n, n)), R=np.eye(m),
                     Y1=np.zeros((n, n)), Y2=np.zeros((m, n)))


def identity_state(dyn: LinearDynamics) -> AdmmState:
    """The identity initialization: K = 0, P = Q = R = I, Y = 0."""
    n, m = dyn.n, dyn.m
    return AdmmState(K=np.zeros((m, n)), P=np.eye(n), Q=np.eye(n),
                     R=np.eye(m), Y1=np.zeros((n, n)), Y2=np.zeros((m, n)))


def _stack(states) -> AdmmState:
    """One state holding the iterates of ``states`` (all at the same
    iteration) along a leading start axis."""
    arrays = {f: np.stack([getattr(s, f) for s in states])
              for f in ("K", "P", "Q", "R", "Y1", "Y2")}
    dual = (None if states[0].pqr_dual is None
            else np.stack([s.pqr_dual for s in states]))
    return AdmmState(**arrays, iter=states[0].iter, pqr_dual=dual)


def _take(state: AdmmState, index) -> AdmmState:
    """The start(s) ``index`` of a stacked state: one start for an int, a
    smaller stack for a list."""
    return AdmmState(K=state.K[index], P=state.P[index], Q=state.Q[index],
                     R=state.R[index], Y1=state.Y1[index], Y2=state.Y2[index],
                     iter=state.iter,
                     pqr_dual=None if state.pqr_dual is None
                     else state.pqr_dual[index])


def admm_iterate(state: AdmmState, demos: DemoSet, loss: LossSpec,
                 reg: RegularizerSpec, dyn: LinearDynamics, rho: float,
                 pqr_iters: int = AdmmConfig.pqr_iters,
                 pqr_tol: float = AdmmConfig.pqr_tol) -> AdmmState:
    """One sweep: K step, (P, Q, R) step, then dual update Y <- Y + rho M.

    The constraint matrix M in the dual update is evaluated at the freshly
    updated iterates.  Subsolver failures are re-raised with the iteration
    number attached.  ``state`` may also be a stack of starts (a leading
    axis on every matrix, see ``fit_kalman``): the K step and the dual
    update then run start by start, and the (P, Q, R) step runs once for
    the whole stack.  Each start's new iterate is bit for bit the one a
    sweep of that start alone gives.
    """
    lead = state.K.ndim == 3
    batch = state if lead else _stack([state])
    try:
        K = np.stack([conic_ls.solve_k_step(demos, loss, reg, rho, P, Q, R,
                                            Y1, Y2, dyn)
                      for P, Q, R, Y1, Y2 in zip(batch.P, batch.Q, batch.R,
                                                 batch.Y1, batch.Y2)])
        step = conic_ls.solve_pqr_step(dyn, K, batch.Y1, batch.Y2, rho,
                                       tol=pqr_tol, max_iter=pqr_iters,
                                       init=(batch.P, batch.Q, batch.R),
                                       dual0=batch.pqr_dual, refine=False)
    except (conic_ls.SingularFitError, np.linalg.LinAlgError) as e:
        raise RuntimeError(
            f"subsolver failed at iteration {state.iter + 1}: {e}") from e
    Y1, Y2 = [], []
    for k, P, Q, R, y1, y2 in zip(K, step.P, step.Q, step.R, batch.Y1,
                                  batch.Y2):
        M1, M2 = conic_ls.KalmanOperator(dyn.A, dyn.B, k).apply(P, Q, R)
        Y1.append(y1 + rho * M1)
        Y2.append(y2 + rho * M2)
    new = AdmmState(K=K, P=step.P, Q=step.Q, R=step.R, Y1=np.stack(Y1),
                    Y2=np.stack(Y2), iter=state.iter + 1, pqr_dual=step.dual)
    return new if lead else _take(new, 0)


def _run_lockstep(starts, demos, loss, reg, dyn, config):
    """Advance all starts together, one stacked ``admm_iterate`` per sweep.

    A start stops at the cap or once ||K_{k+1} - K_k||_F < eps, and leaves
    the batch; so does a start whose iterate turns non-finite.  Returns,
    per start, (final state, converged) or the FloatingPointError raised
    for it.
    """
    outcome = [None] * len(starts)
    active = list(range(len(starts)))
    batch = _stack(starts)
    for _ in range(config.n_iter):
        new = admm_iterate(batch, demos, loss, reg, dyn, config.rho,
                           pqr_iters=config.pqr_iters, pqr_tol=config.pqr_tol)
        keep = []
        for j, idx in enumerate(active):
            s = _take(new, j)
            if not (np.all(np.isfinite(s.K)) and np.all(np.isfinite(s.P))
                    and np.all(np.isfinite(s.Q)) and np.all(np.isfinite(s.R))):
                outcome[idx] = FloatingPointError(
                    f"non-finite iterate at iteration {s.iter}")
            elif np.linalg.norm(s.K - batch.K[j], "fro") < config.eps:
                outcome[idx] = (s, True)
            else:
                keep.append(j)
        active = [active[j] for j in keep]
        if not active:
            break
        batch = new if len(keep) == len(new.K) else _take(new, keep)
    for j, idx in enumerate(active):
        outcome[idx] = (_take(batch, j), False)
    return outcome


def fit_kalman(demos: DemoSet, loss: LossSpec, reg: RegularizerSpec,
               dyn: LinearDynamics, config: AdmmConfig = AdmmConfig()
               ) -> KalmanFitReport:
    """Two-start constrained policy fit; the lowest-objective run wins.

    Start 0 is ``zero_state`` and start 1 is ``identity_state``.  Both
    advance together, one stacked ``admm_iterate`` per sweep, and each
    stops on its own test; the report is the same as if the starts ran
    one after another, and bit-reproducible for a fixed config.  More
    starts in K alone would add nothing: the K step does not read the
    incoming K, so such a start holds the identity start's iterate after
    one sweep.  Ties in the objective break toward the lower init index.
    Raises RuntimeError only if both runs produced non-finite iterates.
    """
    starts = [zero_state(dyn), identity_state(dyn)]
    results = []
    failures = []
    for idx, out in enumerate(_run_lockstep(starts, demos, loss, reg, dyn,
                                            config)):
        if isinstance(out, FloatingPointError):
            failures.append(f"init {idx}: {out}")
            continue
        final, converged = out
        objective = fitting.fit_objective(demos, final.K, loss, reg)
        results.append((objective, idx, final, converged))
    if not results:
        raise RuntimeError("all runs diverged: " + "; ".join(failures))
    objective, idx, final, converged = min(results, key=lambda r: (r[0], r[1]))
    P = conic_ls.project_psd(final.P, 0.0)
    Q = conic_ls.project_psd(final.Q, 0.0)
    R = conic_ls.project_psd(final.R, 1.0)
    op = conic_ls.KalmanOperator(dyn.A, dyn.B, final.K)
    residual = float(np.sqrt(op.objective(P, Q, R)))
    certificate = riccati.KalmanCertificate(P=P, Q=Q, R=R, residual=residual)
    try:
        K_certified = riccati.solve_lqr(dyn, (certificate.Q, certificate.R)).K
    except (riccati.ConvergenceError, np.linalg.LinAlgError):
        K_certified = None
    return KalmanFitReport(K=final.K, K_certified=K_certified,
                           certificate=certificate, objective=objective,
                           converged=converged, iterations=final.iter,
                           init_index=idx)
