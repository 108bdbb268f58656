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

Fits advance in lockstep across problems and starts: ``fit_kalman_batch``
takes many (demos, system) problems of one size, such as the cells of an
experiment sweep, and each sweep runs one K step, one (P, Q, R) step and
one dual update for every start of every problem still running, so the
per-call overhead of the small solves is paid once per sweep instead of
once per start.  The K step's terms that depend on the demonstrations
alone are computed once per problem.  A start that stops leaves the
batch.  A sweep whose subsolver fails, or whose (P, Q, R) step returns a
non-finite point, halves the batch by problem, and each half goes on
alone from that sweep, until the failing problem is a batch of its own
and fails with all its starts.  The results are unchanged: every start's
iterates are bit for bit those of running it alone, and ``fit_kalman``
is the batch of one problem.

Besides the raw final iterate K, each report carries ``K_certified``: the
gain re-synthesized by solving the Riccati equation with the recovered
(Q, R), which satisfies the optimality constraints exactly and inherits
LQR stability margins whenever the re-solve succeeds, and ``K_reported``:
the gain callers use, ``K_certified`` or, when the re-solve failed, K.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import conic_ls, fitting, riccati
from .conic_ls import LossSpec, RegularizerSpec
from .linsys import (DemoSet, LinearDynamics, _check_count, _check_real,
                     _row_norms)

logger = logging.getLogger("lqfit")

# The splitting iterations of each sweep's (P, Q, R) step.
_PQR_ITERS = 40


@dataclass(frozen=True)
class AdmmConfig:
    """Parameters of the alternating-direction fitting loop.

    ``rho`` is the penalty weight, ``n_iter`` the iteration cap and
    ``eps`` the Frobenius threshold on successive gains for early
    termination.  The inner (P, Q, R) solver's budget per sweep and the
    starts are fixed; see ``admm_iterate`` and ``fit_kalman``.
    """

    rho: float = 1.0
    n_iter: int = 200
    eps: float = 1e-6

    def __post_init__(self):
        _check_real(self.rho, "rho", 0.0, strict=True)
        _check_count(self.n_iter, "n_iter", 1)
        _check_real(self.eps, "eps", 0.0)


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

    @property
    def K_reported(self) -> np.ndarray:
        """``K_certified``, or the fitted ``K`` when the re-solve failed."""
        return self.K if self.K_certified is None else self.K_certified

    def to_dict(self) -> dict:
        """The report as JSON data: the two gains, then the certificate's
        ``to_dict``, then the scalars and ``K_reported``."""
        return {
            "K": self.K.tolist(),
            "K_certified": None if self.K_certified is None
            else self.K_certified.tolist(),
            **self.certificate.to_dict(),
            "objective": self.objective,
            "converged": self.converged,
            "iterations": self.iterations,
            "init_index": self.init_index,
            "K_reported": self.K_reported.tolist(),
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


# The stacked fields of an AdmmState, one row per member; a fresh start's
# pqr_dual is None, and a stack or a take of such states leaves it None.
_FIELDS = ("K", "P", "Q", "R", "Y1", "Y2", "pqr_dual")


def _stack(states) -> AdmmState:
    """One state holding the iterates of ``states`` (all at the same
    iteration) along a leading start axis."""
    return AdmmState(iter=states[0].iter, **{
        f: np.stack([getattr(s, f) for s in states]) for f in _FIELDS
        if getattr(states[0], f) is not None})


def _take(state: AdmmState, index) -> AdmmState:
    """The start(s) ``index`` of a stacked state: one start for an int, a
    smaller stack for a list."""
    return AdmmState(iter=state.iter, **{
        f: getattr(state, f)[index] for f in _FIELDS
        if getattr(state, f) is not None})


def admm_iterate(state: AdmmState, demos: DemoSet | list[DemoSet],
                 loss: LossSpec, reg: RegularizerSpec,
                 dyn: LinearDynamics | list[LinearDynamics],
                 rho: float) -> AdmmState:
    """One sweep: K step, (P, Q, R) step, then dual update Y <- Y + rho M.

    The (P, Q, R) step is warm-started from the incoming iterate and its
    splitting dual, and runs 40 splitting iterations and one face polish;
    it never returns worse than the incoming iterate.  The constraint
    matrix M in the dual update is evaluated at the freshly updated
    iterates.  Subsolver failures, a non-finite K-step gain, a non-finite
    splitting dual (which the (P, Q, R) step rejects) and a non-finite
    (P, Q, R) point are re-raised as RuntimeError with the iteration
    number attached.
    ``state`` may also be a stack of members (a leading axis on every
    matrix, see ``fit_kalman_batch``), with ``demos`` and ``dyn`` each
    either shared or a list holding one entry per member; the systems must
    share one size.  The K step, the (P, Q, R) step and the dual update
    each run once for the whole stack, and each member's new iterate is
    bit for bit the one a sweep of that member alone gives.
    """
    lead = state.K.ndim == 3
    batch = state if lead else _stack([state])
    try:
        K = conic_ls.solve_k_step(demos, loss, reg, rho, batch.P, batch.Q,
                                  batch.R, batch.Y1, batch.Y2, dyn)
        if not np.isfinite(K).all():
            raise FloatingPointError("the K step returned a non-finite "
                                     "gain")
        # a non-finite P, Q, R, Y1 or Y2 makes the gain non-finite; the
        # splitting dual is the one input of the (P, Q, R) step that the
        # K step does not read
        if (batch.pqr_dual is not None
                and not np.isfinite(batch.pqr_dual).all()):
            raise FloatingPointError("the (P, Q, R) step's dual is not "
                                     "finite")
        step = conic_ls.solve_pqr_step(dyn, K, batch.Y1, batch.Y2, rho,
                                       max_iter=_PQR_ITERS,
                                       init=(batch.P, batch.Q, batch.R),
                                       dual0=batch.pqr_dual)
        if not all(np.isfinite(M).all() for M in (step.P, step.Q, step.R)):
            raise FloatingPointError("the (P, Q, R) step returned a "
                                     "non-finite point")
    except (conic_ls.SingularFitError, np.linalg.LinAlgError,
            FloatingPointError) as e:
        raise RuntimeError(
            f"subsolver failed at iteration {state.iter + 1}: {e}") from e
    A, B = conic_ls._stacked_systems(dyn, len(K))
    M1, M2 = conic_ls.KalmanOperator(A, B, K).apply(step.P, step.Q, step.R)
    new = AdmmState(K=K, P=step.P, Q=step.Q, R=step.R,
                    Y1=batch.Y1 + rho * M1, Y2=batch.Y2 + rho * M2,
                    iter=state.iter + 1, pqr_dual=step.dual)
    return new if lead else _take(new, 0)


def _run_lockstep(batch, members, loss, reg, config):
    """Advance the stacked starts ``batch`` together, one stacked
    ``admm_iterate`` per sweep.

    Start i belongs to the (demos, dyn, problem) triple ``members[i]``.  A
    start stops at the cap or once ||K_{k+1} - K_k||_F < eps, and leaves
    the batch.  The test runs on the whole stack, and the starts that go
    on are taken from it once per sweep.  A raising sweep ends a batch of
    one problem, with that RuntimeError for each start.  A batch of
    several problems is halved instead: its first half of the problems
    (rounded down) and the rest each go on alone from that sweep's input.
    Returns, per start, (final state, converged) or the RuntimeError its
    problem's sweep raised.
    """
    outcome = [None] * len(members)
    active = np.arange(len(members))
    while True:
        live = [members[i] for i in active]
        try:
            new = admm_iterate(batch, [d for d, _, _ in live], loss, reg,
                               [s for _, s, _ in live], config.rho)
        except RuntimeError as e:
            problems = sorted({p for _, _, p in live})
            if len(problems) == 1:
                for i in active.tolist():
                    outcome[i] = e
                return outcome
            first = np.array([p < problems[len(problems) // 2]
                              for _, _, p in live])
            for half in (first, ~first):
                idx = np.flatnonzero(half)
                for i, out in zip(active[idx].tolist(), _run_lockstep(
                        _take(batch, idx), [live[j] for j in idx], loss, reg,
                        config)):
                    outcome[i] = out
            return outcome
        # ||K_{k+1} - K_k||_F of every start, each bit-equal to
        # np.linalg.norm of its difference
        dK = new.K - batch.K
        converged = _row_norms(dK.reshape(len(dK), -1)) < config.eps
        last = new.iter == config.n_iter
        for j in np.flatnonzero(converged | last).tolist():
            outcome[active[j]] = (_take(new, j), bool(converged[j]))
        if last or converged.all():
            return outcome
        if converged.any():
            active, new = active[~converged], _take(new, ~converged)
        batch = new


def _report(demos, loss, reg, dyn, outcomes):
    """The report of one problem from the outcomes of its starts, or the
    RuntimeError one of its starts' sweeps raised."""
    error = next((o for o in outcomes if isinstance(o, RuntimeError)), None)
    if error is not None:
        return error
    # min keeps the first of equal objectives: the lower init index
    objective, idx, final, converged = min(
        ((fitting.fit_objective(demos, final.K, loss, reg), idx, final,
          converged) for idx, (final, converged) in enumerate(outcomes)),
        key=lambda r: r[0])
    certificate = riccati.KalmanCertificate.at(
        conic_ls.KalmanOperator(dyn.A, dyn.B, final.K),
        conic_ls.project_psd(final.P, 0.0), conic_ls.project_psd(final.Q, 0.0),
        conic_ls.project_psd(final.R, 1.0))
    try:
        K_certified = riccati.solve_lqr(dyn, (certificate.Q, certificate.R)).K
    except (riccati.ConvergenceError, np.linalg.LinAlgError) as e:
        logger.info("certified re-solve failed at certificate residual "
                    "%.3e: %s", certificate.residual, e)
        K_certified = None
    return KalmanFitReport(K=final.K, K_certified=K_certified,
                           certificate=certificate, objective=objective,
                           converged=converged, iterations=final.iter,
                           init_index=idx)


def fit_kalman_batch(problems, loss: LossSpec, reg: RegularizerSpec,
                     config: AdmmConfig = AdmmConfig()
                     ) -> list[KalmanFitReport | RuntimeError]:
    """``fit_kalman`` on every (demos, dyn) pair of ``problems`` at once.

    The systems must share one size (n, m), which the demonstrations must
    fit.  Both starts of every problem advance together, one stacked
    ``admm_iterate`` per sweep.  Returns, in order, each problem's
    ``KalmanFitReport``, or the RuntimeError that ``fit_kalman`` raises on
    that problem alone.  A sweep that raises splits the batch into its
    first half of the problems (rounded down) and the rest, and each half
    goes on alone from that sweep, halved again if it raises, so a failing
    problem ends with both its starts and no other problem is touched.
    Every report is bit for bit the one ``fit_kalman`` gives for its
    problem alone.
    """
    problems = list(problems)
    if not problems:
        return []
    sizes = sorted({(dyn.n, dyn.m) for _, dyn in problems})
    if len(sizes) > 1:
        raise ValueError(f"the systems of a batch must share one size "
                         f"(n, m), got {sizes}")
    starts, members = [], []
    for p, (demos, dyn) in enumerate(problems):
        if (demos.states.shape[1], demos.inputs.shape[1]) != (dyn.n, dyn.m):
            raise ValueError(f"problem {p}: states {demos.states.shape} and "
                             f"inputs {demos.inputs.shape} do not fit a "
                             f"system with (n, m) = {(dyn.n, dyn.m)}")
        for start in (zero_state(dyn), identity_state(dyn)):
            starts.append(start)
            members.append((demos, dyn, p))
    outcome = _run_lockstep(_stack(starts), members, loss, reg, config)
    return [_report(demos, loss, reg, dyn, outcome[2 * p:2 * p + 2])
            for p, (demos, dyn) in enumerate(problems)]


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
    Raises RuntimeError if a subsolver failed or a (P, Q, R) step returned
    a non-finite point.  This is ``fit_kalman_batch`` on one problem.
    """
    result, = fit_kalman_batch([(demos, dyn)], loss, reg, config)
    if isinstance(result, RuntimeError):
        raise result
    return result
