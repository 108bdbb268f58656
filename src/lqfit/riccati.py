"""Discrete-time LQR synthesis and Kalman-optimality certificates.

The LQR problem with weights (Q, R) is solved through the algebraic
Riccati equation

    P = Q + A^T P A - A^T P B (R + B^T P B)^{-1} B^T P A,

whose stabilizing solution yields the optimal gain
K = -(R + B^T P B)^{-1} B^T P A.  A given gain K is LQR-optimal for *some*
weights exactly when the semidefinite feasibility system

    Q + A^T P (A + B K) - P = 0
    R K + B^T P (A + B K)   = 0
    P >= 0,  Q >= 0,  R >= I

has a solution; a cone-feasible (P, Q, R) with small stacked residual
serves as the optimality certificate.  The left-hand sides are the map
:class:`lqfit.conic_ls.KalmanOperator`.  Infeasibility is reported as
failure to reach the residual tolerance, not proved via a dual
certificate.

The Riccati solver is a structure-preserving doubling iteration
(quadratically convergent, no external solver); plain fixed-point value
iteration is available as a fallback.  The optimal gain depends on
(A, B, Q, R) only, never on the disturbance covariance W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import conic_ls
from .linsys import LinearDynamics, _min_eig, _sym, cost_pair


class ConvergenceError(RuntimeError):
    """Riccati iteration failed to reach tolerance; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True, eq=False)
class LqrSolution:
    """Optimal gain K and Riccati solution P for a given (A, B, Q, R)."""

    K: np.ndarray
    P: np.ndarray


@dataclass(frozen=True, eq=False)
class KalmanCertificate:
    """Cone-feasible (P, Q, R) witnessing LQR-optimality of some gain.

    ``residual`` is the Frobenius norm of the stacked constraint matrix at
    the gain the certificate was computed for.
    """

    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    residual: float

    def __post_init__(self):
        for name in ("P", "Q", "R"):
            M = np.array(getattr(self, name), dtype=float)
            M.flags.writeable = False
            object.__setattr__(self, name, M)
        for M, name, floor in ((self.P, "P", 0.0), (self.Q, "Q", 0.0),
                               (self.R, "R", 1.0)):
            if _min_eig(M) < floor - 1e-8 * (1.0 + np.linalg.norm(M)):
                raise ValueError(f"certificate {name} violates its cone constraint")

    def to_dict(self) -> dict:
        return {"P": self.P.tolist(), "Q": self.Q.tolist(),
                "R": self.R.tolist(), "residual": self.residual}


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Outcome of the Kalman feasibility check for a gain."""

    feasible: bool
    certificate: KalmanCertificate
    tol: float
    iterations: int


def are_residual(dyn: LinearDynamics, cost, P: np.ndarray) -> float:
    """Frobenius norm of the Riccati fixed-point defect at P."""
    Q, R = cost_pair(cost)
    A, B = dyn.A, dyn.B
    BtP = B.T @ P
    defect = P - (Q + A.T @ P @ A
                  - A.T @ P @ B @ np.linalg.solve(R + BtP @ B, BtP @ A))
    return float(np.linalg.norm(defect, "fro"))


def _sda_iteration(A, B, Q, R, tol, max_iter):
    """Structure-preserving doubling for the DARE; returns (P, converged)."""
    n = A.shape[0]
    G = _sym(B @ np.linalg.solve(R, B.T))
    Ak, Gk, Hk = A.copy(), G, _sym(Q)
    eye = np.eye(n)
    for _ in range(max_iter):
        M = eye + Gk @ Hk
        MinvA = np.linalg.solve(M, Ak)
        MinvG = np.linalg.solve(M, Gk)
        Hnew = _sym(Hk + Ak.T @ Hk @ MinvA)
        Gk = _sym(Gk + Ak @ MinvG @ Ak.T)
        Ak = Ak @ MinvA
        delta = np.linalg.norm(Hnew - Hk, "fro")
        Hk = Hnew
        if not np.all(np.isfinite(Hk)):
            return Hk, False
        if delta <= tol * (1.0 + np.linalg.norm(Hk, "fro")):
            return Hk, True
    return Hk, False


def _value_iteration(A, B, Q, R, tol, max_iter):
    """Fixed-point Riccati recursion P <- Q + A'PA - A'PB(R+B'PB)^{-1}B'PA."""
    P = _sym(Q.copy())
    for _ in range(max_iter):
        BtP = B.T @ P
        Pn = _sym(Q + A.T @ P @ A
                  - A.T @ P @ B @ np.linalg.solve(R + BtP @ B, BtP @ A))
        if not np.all(np.isfinite(Pn)):
            return Pn, False
        if np.linalg.norm(Pn - P, "fro") <= tol * (1.0 + np.linalg.norm(Pn, "fro")):
            return Pn, True
        P = Pn
    return P, False


def solve_lqr(dyn: LinearDynamics, cost, tol: float = 1e-12,
              max_iter: int = 10_000) -> LqrSolution:
    """Solve the infinite-horizon LQR problem for (A, B, Q, R).

    ``cost`` may be a CostMatrices or a plain (Q, R) pair; R must be
    positive definite, Q positive semidefinite, and (A, B) controllable
    (caller's responsibility; failure surfaces as non-convergence).

    Raises ConvergenceError when the computed P does not satisfy the
    Riccati equation to 1e-8 * (1 + ||P||_F).
    """
    Q, R = cost_pair(cost)
    A, B = dyn.A, dyn.B
    if Q.shape != (dyn.n, dyn.n) or R.shape != (dyn.m, dyn.m):
        raise ValueError("cost matrix dimensions do not match the system")
    P, ok = _sda_iteration(A, B, Q, R, tol, max_iter=120)
    resid = are_residual(dyn, (Q, R), P) if np.all(np.isfinite(P)) else math.inf
    if not ok or resid > 1e-10 * (1.0 + np.linalg.norm(P, "fro")):
        P2, ok2 = _value_iteration(A, B, Q, R, tol, max_iter)
        resid2 = (are_residual(dyn, (Q, R), P2)
                  if np.all(np.isfinite(P2)) else math.inf)
        if ok2 or resid2 < resid:
            P, ok, resid = P2, ok2, resid2
    if not ok or resid > 1e-8 * (1.0 + np.linalg.norm(P, "fro")):
        raise ConvergenceError("Riccati iteration did not converge", resid)
    BtP = B.T @ P
    K = -np.linalg.solve(R + BtP @ B, BtP @ A)
    return LqrSolution(K=K, P=P)


def kalman_residual(dyn: LinearDynamics, K, cert: KalmanCertificate) -> float:
    """||M||_F of the stacked constraints at (K, cert.P, cert.Q, cert.R)."""
    op = conic_ls.KalmanOperator(dyn.A, dyn.B, K)
    return math.sqrt(op.objective(cert.P, cert.Q, cert.R))


def check_kalman_feasible(dyn: LinearDynamics, K, tol: float | None = None,
                          max_iter: int = 20_000) -> FeasibilityResult:
    """Decide whether K is LQR-optimal for some cone-feasible (P, Q, R).

    Runs the cone-constrained least squares of :func:`conic_ls.solve_pqr_step`
    with zero dual offset, driving the constraint residual toward zero.  If
    the best residual is within ``tol`` (default 1e-6 * (1 + ||K||_F)) the
    gain is certified feasible; otherwise the best iterate is returned
    flagged infeasible at that tolerance.  Infeasibility is a report, not
    an exception.
    """
    K = np.asarray(K, dtype=float)
    if tol is None:
        tol = 1e-6 * (1.0 + np.linalg.norm(K, "fro"))
    zero1 = np.zeros((dyn.n, dyn.n))
    zero2 = np.zeros((dyn.m, dyn.n))
    step = conic_ls.solve_pqr_step(dyn, K, zero1, zero2, rho=1.0,
                                   tol=1e-13, max_iter=max_iter,
                                   target=(0.5 * tol) ** 2)
    residual = float(np.sqrt(max(step.objective, 0.0)))
    cert = KalmanCertificate(P=step.P, Q=step.Q, R=step.R, residual=residual)
    return FeasibilityResult(feasible=bool(residual <= tol), certificate=cert,
                             tol=float(tol), iterations=step.iterations)
