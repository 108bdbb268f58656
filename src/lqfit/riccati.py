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
:class:`lqfit.conic_ls.KalmanOperator`.

:func:`check_kalman_feasible` backs its answer with an object that can be
checked either way.  A closed-loop eigenpair F v = lambda v (F = A + B K)
with |lambda| >= 1 and K v != 0 proves infeasibility.  When F is stable,
every solution has P = Lyap(F, Q + K^T R K), so the question reduces to
whether the null space of one linear map in (Q, R) meets
{Q >= 0, R >= I} (Kalman 1964, "When is a linear control system
optimal?"; Boyd et al. 1994, *LMIs in System and Control Theory*,
section 10.6).  The map's columns need one Stein equation per svec basis
matrix of Q, n(n + 1)/2 in all; they are solved as one stack that shares
one doubling loop (:func:`lqfit.linsys.solve_lyapunov_stein`), each
solution bit for bit that of its own call.  These basis solutions are the
check's only Stein solve: a certificate's P is read off them, and a
Farkas witness's blocks are the image of its multiplier under the map's
transpose.  A barrier method in that
reduced space, on the central path of :mod:`lqfit.conic_ls` that the cold
(P, Q, R) solve runs too, ends in a certificate or in a Farkas witness,
each verified up to a stated roundoff slack, or else in "undecided",
which proves nothing.  Unstable modes in ker K are split off first.  The
check's own LAPACK work (the reduced map's SVD and the one that splits
off unstable modes, the certificate and witness tests' eigenvalues and
projections, the inverses that build a Farkas candidate, the cone tests
of a certificate) calls numpy's gufuncs directly, each group under one
error state, as the barrier's Newton steps do: on these float64 arrays
numpy.linalg's wrappers would only check and convert, so the same LAPACK
routine runs on the same bytes.

The Riccati solver is a structure-preserving doubling iteration
(quadratically convergent, no external solver).  On badly scaled systems
doubling can stop on a P whose Riccati residual is still large; Newton
(Hewer) steps then refine it, each one Stein equation for the cost of the
gain read from P (Hewer 1971, "An iterative technique for the computation
of the steady state gains for the discrete optimal regulator", IEEE TAC
16(4)).  The optimal gain depends on (A, B, Q, R) only, never on the
disturbance covariance W.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import conic_ls
from .linsys import (_LAPACK, STABILITY_MARGIN, LinearDynamics, _check_real,
                     _lapack_errors, _lowest, _sym, cost_pair,
                     solve_lyapunov_stein, spectral_radius)

logger = logging.getLogger("lqfit")

# Roundoff slack of the witness tests, relative to the witness's scale.
_WITNESS_SLACK = 1e-9
# Least tr Wr of a Farkas witness, relative to its scale.
_WITNESS_TRACE = 1e-6
# The gap bound the reduced check's barrier method stops at.
_GAP_STOP = 1e-13
# Doubling stops once a step moves P by at most _SDA_TOL relative to ||P||_F,
# or gives up after _SDA_MAX_ITER steps.
_SDA_TOL = 1e-12
_SDA_MAX_ITER = 120


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
    the gain the certificate was computed for; :meth:`at` computes it.  P,
    Q and R must be finite (ValueError otherwise); the residual may be
    infinite, as when it overflows for finite matrices.
    """

    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    residual: float

    def __post_init__(self):
        for name in ("P", "Q", "R"):
            M = np.array(getattr(self, name), dtype=float)
            if not np.isfinite(M).all():
                raise ValueError(f"certificate {name} must be finite")
            M.flags.writeable = False
            object.__setattr__(self, name, M)
        with _lapack_errors():
            for M, name, floor in ((self.P, "P", 0.0), (self.Q, "Q", 0.0),
                                   (self.R, "R", 1.0)):
                if _lowest(M) < floor - 1e-8 * (1.0 + np.linalg.norm(M)):
                    raise ValueError(f"certificate {name} violates its cone "
                                     f"constraint")

    @classmethod
    def at(cls, op, P, Q, R, tol=None):
        """The certificate (P, Q, R) of the gain of ``op`` (a
        :class:`lqfit.conic_ls.KalmanOperator`) with its residual; None,
        before any cone test, when that residual exceeds ``tol``."""
        residual = math.sqrt(op.objective(P, Q, R))
        if tol is not None and residual > tol:
            return None
        return cls(P=P, Q=Q, R=R, residual=residual)

    def to_dict(self) -> dict:
        return {"P": self.P.tolist(), "Q": self.Q.tolist(),
                "R": self.R.tolist(), "residual": self.residual}


@dataclass(frozen=True, eq=False)
class UnstableModeWitness:
    """Closed-loop eigenpair F v = lambda v with |lambda| >= 1 and K v != 0.

    Any certificate gives P = Q + K^T R K + F^T P F, so
    (1 - |lambda|^2) v*Pv = v*(Q + K^T R K)v >= |K v|^2 > 0 with P >= 0,
    which |lambda| >= 1 rules out.  ``vector`` has unit norm.
    """

    eigenvalue: complex
    vector: np.ndarray

    def to_dict(self) -> dict:
        return {"kind": "unstable_mode",
                "eigenvalue": [self.eigenvalue.real, self.eigenvalue.imag],
                "vector_real": self.vector.real.tolist(),
                "vector_imag": self.vector.imag.tolist()}


@dataclass(frozen=True, eq=False)
class FarkasWitness:
    """Multiplier Y (m x n) whose image under the adjoint of the reduced
    map lies in the dual cone of {Q >= 0, R >= I}.

    Every symmetric (Q, R) satisfies
    <Y, R K + B^T P(Q, R) F> = <Wq, Q> + <Wr, R>, so the blocks are
    computed as svec(Wq, Wr) = Mat^T vec(Y), Mat the reduced map's matrix;
    up to roundoff they are Wq = X with X = F X F^T + sym(B Y F^T) and
    Wr = sym(Y K^T) + K X K^T.  A certificate makes the
    left side zero, while Wq >= 0, Wr >= 0 with tr Wr > 0 make the right
    side at least tr Wr > 0 on Q >= 0, R >= I.  The check accepts
    eigenvalues of Wq and Wr down to -eps * ||(Wq, Wr)|| (eps =
    _WITNESS_SLACK, roundoff) and needs tr Wr >= _WITNESS_TRACE *
    ||(Wq, Wr)||; with that slack the witness rules out every certificate
    with tr Q + tr R < m + tr Wr / (eps ||(Wq, Wr)||).
    """

    Y: np.ndarray
    Wq: np.ndarray
    Wr: np.ndarray

    def to_dict(self) -> dict:
        return {"kind": "farkas", "Y": self.Y.tolist(), "Wq": self.Wq.tolist(),
                "Wr": self.Wr.tolist()}


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Outcome of the Kalman feasibility check for a gain.

    ``verdict`` is "feasible" (``certificate`` within ``tol``),
    "infeasible" (``witness`` proves it) or "undecided" (the check found
    neither; no proof either way).  ``iterations`` counts the Newton steps
    of the reduced check's barrier method.
    """

    certificate: KalmanCertificate
    tol: float
    iterations: int
    verdict: str
    witness: UnstableModeWitness | FarkasWitness | None = None

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"

    def to_dict(self) -> dict:
        return {"feasible": self.feasible, "verdict": self.verdict,
                "tol": self.tol,
                "iterations": self.iterations,
                "witness": None if self.witness is None
                else self.witness.to_dict(),
                **self.certificate.to_dict()}


def are_residual(dyn: LinearDynamics, cost, P: np.ndarray) -> float:
    """Frobenius norm of the Riccati fixed-point defect at P; raises
    ValueError unless Q and R match the system and P is n x n."""
    Q, R = cost_pair(dyn, cost)
    if np.shape(P) != (dyn.n, dyn.n):
        raise ValueError(f"P must be {dyn.n}x{dyn.n}, got shape {np.shape(P)}")
    A, B = dyn.A, dyn.B
    BtP = B.T @ P
    defect = P - (Q + A.T @ P @ A
                  - A.T @ P @ B @ np.linalg.solve(R + BtP @ B, BtP @ A))
    return float(np.linalg.norm(defect, "fro"))


def _sda_iteration(A, B, Q, R):
    """Structure-preserving doubling for the DARE; returns (P, converged)."""
    n = A.shape[0]
    G = _sym(B @ np.linalg.solve(R, B.T))
    Ak, Gk, Hk = A.copy(), G, _sym(Q)
    eye = np.eye(n)
    for _ in range(_SDA_MAX_ITER):
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
        if delta <= _SDA_TOL * (1.0 + np.linalg.norm(Hk, "fro")):
            return Hk, True
    return Hk, False


def _lqr_gain(A, B, R, P):
    BtP = B.T @ P
    return -np.linalg.solve(R + BtP @ B, BtP @ A)


def _newton_refine(dyn, Q, R, P, resid):
    """Hewer's Newton steps P <- Lyap(A + B K, Q + K^T R K), K the gain of
    P, while the closed loop stays stable and the residual strictly falls;
    returns (P, residual)."""
    start, steps = resid, 0
    while True:
        K = _lqr_gain(dyn.A, dyn.B, R, P)
        F = dyn.closed_loop(K)
        if spectral_radius(F) >= STABILITY_MARGIN:
            break
        P_next = solve_lyapunov_stein(F, Q + K.T @ R @ K)
        resid_next = are_residual(dyn, (Q, R), P_next)
        if not resid_next < resid:
            break
        P, resid, steps = P_next, resid_next, steps + 1
    logger.info("Riccati Newton refinement: residual %.3e after doubling, "
                "%.3e after %d Newton steps", start, resid, steps)
    return P, resid


def solve_lqr(dyn: LinearDynamics, cost) -> LqrSolution:
    """Solve the infinite-horizon LQR problem for (A, B, Q, R).

    ``cost`` may be a CostMatrices or a plain (Q, R) pair; R must be
    positive definite, Q positive semidefinite, and (A, B) controllable
    (caller's responsibility; failure surfaces as non-convergence).  P is
    found by doubling; when its Riccati residual exceeds
    1e-10 * (1 + ||P||_F), Newton steps refine it (logged on the ``lqfit``
    logger).

    The gain is sure to stabilize only when (A, Q^{1/2}) is also
    detectable.  With Q = 0, P = 0 and K = 0 solve the equation exactly,
    whatever A is: the weights recovered on the 747 at seeds 3 and 4 with
    N = 1 have Q = 0, and their K = 0 leaves the open loop unstable.

    Raises ConvergenceError when doubling does not converge, or when the
    computed P does not satisfy the Riccati equation to
    1e-8 * (1 + ||P||_F).
    """
    Q, R = cost_pair(dyn, cost)
    P, ok = _sda_iteration(dyn.A, dyn.B, Q, R)
    resid = are_residual(dyn, (Q, R), P) if np.all(np.isfinite(P)) else math.inf
    if not ok:
        raise ConvergenceError("Riccati doubling did not converge", resid)
    if resid > 1e-10 * (1.0 + np.linalg.norm(P, "fro")):
        P, resid = _newton_refine(dyn, Q, R, P, resid)
    if resid > 1e-8 * (1.0 + np.linalg.norm(P, "fro")):
        raise ConvergenceError("Riccati iteration did not converge", resid)
    return LqrSolution(K=_lqr_gain(dyn.A, dyn.B, R, P), P=P)


def kalman_residual(dyn: LinearDynamics, K, cert: KalmanCertificate) -> float:
    """||M||_F of the stacked constraints at (K, cert.P, cert.Q, cert.R)."""
    op = conic_ls.KalmanOperator(dyn.A, dyn.B, K)
    return KalmanCertificate.at(op, cert.P, cert.Q, cert.R).residual


def _pow2_scale(K):
    """The power of two s with s <= max |K| < 2 s (1 for K = 0).  A norm
    of K / s, times s, squares nothing that overflows, and it is bit for
    bit the norm of K wherever that neither overflows nor underflows."""
    top = float(np.abs(K).max(initial=0.0))
    return math.ldexp(1.0, math.frexp(top)[1] - 1) if top > 0.0 else 1.0


def _frobenius(K):
    """||K||_F of a finite K, as s ||K / s||_F, s = :func:`_pow2_scale`."""
    s = _pow2_scale(K)
    return s * float(np.linalg.norm(K / s))


def _unstable_mode_witness(K, lam, V):
    """Route 1: the eigenpair with |lambda| >= 1 and the largest |K v|, or
    None when every such mode lies in ker K (up to roundoff).  A loop with
    no such mode returns None before any norm: every |K v| counts as 0
    there, which the witness test never passes."""
    out = np.abs(lam) >= 1.0
    if not out.any():
        return None
    s = _pow2_scale(K)
    gains = np.where(out, np.linalg.norm((K / s) @ V, axis=0), 0.0)
    i = int(np.argmax(gains))
    if s * float(gains[i]) <= _WITNESS_SLACK * (1.0 + np.linalg.norm(K, 2)):
        return None
    # eig returns unit eigenvectors
    return UnstableModeWitness(eigenvalue=complex(lam[i]), vector=V[:, i])


def _reduced_map(F, B, K):
    """(Q, R) -> R K + B^T P(Q, R) F with P(Q, R) = Lyap(F, Q + K^T R K), as
    an (m n) x (dim_n + dim_m) matrix from orthonormal svec coordinates of
    (Q, R) to the row-major ravel of the m x n result, and P of every svec
    basis matrix of (Q, R), a (dim_n + dim_m, n, n) stack.  The
    n(n + 1)/2 Stein equations of the Q basis are solved as one stack,
    sharing one doubling loop; each solution is bit for bit that of its
    own call.  These are the check's only Stein solves: P(Q, R) of any
    point is svec(Q, R) against the stack."""
    En, Em = conic_ls._svec(*B.shape).basis
    PE = solve_lyapunov_stein(F, En)
    # P is linear in Q + K'RK, so the R columns reuse the Q solves
    PR = np.tensordot(conic_ls._svec(len(F)).join([K.T @ Em @ K]), PE,
                      axes=1)
    cols = np.concatenate([B.T @ PE @ F, Em @ K + B.T @ PR @ F])
    return cols.reshape(len(cols), -1).T, np.concatenate([PE, PR])


class _ReducedCheck:
    """Route 2: whether the null space of the reduced map meets
    {Q >= 0, R >= I}, decided by a barrier method, with the tests that turn
    its points into answers."""

    def __init__(self, A, B, K, tol):
        self.op = conic_ls.KalmanOperator(A, B, K)
        self.K, self.tol = K, tol
        self.svec = conic_ls._svec(*B.shape)
        Mat, self.P_basis = _reduced_map(self.op.F, B, K)
        self.adjoint = Mat.T
        with _lapack_errors():
            U, s, Vt = _LAPACK.svd_f(Mat, signature="d->ddd")
        rank = int(np.sum(s > max(Mat.shape) * np.finfo(float).eps
                          * s.max()))
        self.Z = Vt[rank:].T
        # pseudo-inverse of Mat^T on its range: the multiplier of a gap
        self.pinvT = (U[:, :rank] / s[:rank]) @ Vt[:rank]

    def certify(self, Q, R):
        """A certificate from a null-space point with Q >= 0 and R > 0
        (up to roundoff): scaled into R >= I, projected onto the cones,
        with P = Lyap(F, Q + K'RK) read off the basis solutions; None if
        its residual misses tol."""
        with _lapack_errors():
            wq, wr = (_LAPACK.eigvalsh_lo(X, signature="d->d")
                      for X in (Q, R))
            slack = _WITNESS_SLACK * (abs(wq).max() + abs(wr).max())
            if wr.min() <= slack or wq.min() < -slack:
                return None
            Q = conic_ls._project(Q / wr.min(), 0.0)
            R = conic_ls._project(R / wr.min(), 1.0)
        P = _sym(np.tensordot(self.svec.join([Q, R]), self.P_basis, axes=1))
        return KalmanCertificate.at(self.op, P, Q, R, self.tol)

    def farkas(self, gap):
        """An infeasibility witness from a point orthogonal to the null
        space: its multiplier Y, pulled back through the adjoint of the
        map as svec(Wq, Wr) = Mat^T vec(Y), if that lands blockwise PSD
        with tr Wr > 0."""
        Y = (self.pinvT @ gap).reshape(self.K.shape)
        Wq, Wr = self.svec.split(self.adjoint @ Y.ravel())
        scale = math.hypot(np.linalg.norm(Wq), np.linalg.norm(Wr))
        with _lapack_errors():
            cones = (_lowest(Wq) >= -_WITNESS_SLACK * scale
                     and _lowest(Wr) >= -_WITNESS_SLACK * scale)
        if not (cones and np.trace(Wr) >= _WITNESS_TRACE * scale):
            return None
        return FarkasWitness(Y=Y, Wq=Wq, Wr=Wr)

    def decide(self):
        """(certificate, witness, Newton steps): one of the first two is
        set, or neither when the barrier method ends undecided.

        With x0 = svec(I, I) and a = Z^T x0, Z a goes to certify and
        x0 - Z a to farkas (which settles a = 0).  Then a barrier method
        maximizes s over Q(y) - sI > 0, R(y) - sI > 0, a.y = 1 from t = 1,
        on the cold (P, Q, R) solve's :func:`conic_ls._central_path` with
        C = [Z, -x0], gradient -t e_s and the row (a, 0).  Each central
        point gives Z y to certify, whose slack admits faces (max s ~ 0),
        and W - s_hat x0 to farkas: W = ((Q - sI)^-1, (R - sI)^-1) / t and
        s_hat = s + (n + m)/t >= max s make it orthogonal to the null
        space.  It stops at (n + m)/t < _GAP_STOP, or where the path ends.
        """
        svec, Z = self.svec, self.Z
        x0 = svec.join([np.eye(k) for k in svec.sizes])
        a = Z.T @ x0
        cert = self.certify(*svec.split(Z @ a))
        witness = None if cert is not None else self.farkas(x0 - Z @ a)
        if cert is not None or witness is not None or not a.any():
            return cert, witness, 0
        # z = (y, s), C z = svec(Q(y) - sI, R(y) - sI); s starts below
        # -||Z y|| = -1/||a||, and the path keeps a.y = 1
        C = np.column_stack([Z, -x0])
        z = np.append(a / (a @ a), -1.0 - 1.0 / math.sqrt(a @ a))
        e_s, order = np.eye(len(z))[-1], sum(svec.sizes)
        for z, t, steps in conic_ls._central_path(
                svec, C, z, 1.0, 0.0, lambda z, t: -t * e_s,
                a=np.append(a, 0.0)[None]):
            cert = self.certify(*svec.split(Z @ z[:-1]))
            with _lapack_errors():
                W = svec.join([_LAPACK.inv(X, signature="d->d")
                               for X in svec.split(C @ z)]) / t
            witness = (None if cert is not None
                       else self.farkas(W - (z[-1] + order / t) * x0))
            if (cert is not None or witness is not None
                    or order / (t * 10.0) < _GAP_STOP):
                return cert, witness, steps
        return None, None, steps


def _split_certificate(A, B, K, V, tol):
    """Route 3, modes V in ker K: :func:`_check`'s triple, with no
    witness.  P and Q vanish on the modes with |lambda| > 1, so a
    certificate of (T'AT, T'B, KT), T a basis of V's complement, embeds as
    (T P T', T Q T', R), or (0, 0, I).  The smaller system is checked
    whole, so a Jordan chain in ker K is split off one mode per level."""
    with _lapack_errors():
        U, s, _ = _LAPACK.svd_f(np.hstack([V.real, V.imag]),
                                signature="d->ddd")
    T = U[:, int(np.sum(s > len(U) * np.finfo(float).eps * s.max())):]
    k = T.shape[1]
    P = Q = np.zeros((k, k))
    R, steps = np.eye(B.shape[1]), 0
    if k:
        cert, _, steps = _check(T.T @ A @ T, T.T @ B, K @ T, tol)
        if cert is None:
            return None, None, steps
        P, Q, R = cert.P, cert.Q, cert.R
    cert = KalmanCertificate.at(conic_ls.KalmanOperator(A, B, K),
                                T @ P @ T.T, T @ Q @ T.T, R, tol)
    return cert, None, steps


def check_kalman_feasible(dyn: LinearDynamics, K,
                          tol: float | None = None) -> FeasibilityResult:
    """Decide whether K is LQR-optimal for some cone-feasible (P, Q, R).

    Three routes (F = A + B K):

    1. An eigenpair F v = lambda v with |lambda| >= 1 and K v != 0 proves
       K infeasible; it is returned as an :class:`UnstableModeWitness`.
    2. When rho(F) < STABILITY_MARGIN, every solution has
       P = Lyap(F, Q + K^T R K), on which the first constraint block is
       -K^T M(Q, R) with M(Q, R) = R K + B^T P(Q, R) F.  So K is optimal
       exactly when the null space of the linear map M meets
       {Q >= 0, R >= I}.  A barrier method there ends in a certificate (a
       null-space point scaled into R >= I, P = Lyap(F, Q + K^T R K) read
       off M's basis solutions, residual at most ``tol``), in a
       :class:`FarkasWitness`, or ``undecided``: neither once its gap
       bound is below 1e-13 or its Newton system is singular.
    3. Otherwise every mode with |lambda| >= STABILITY_MARGIN lies in
       ker K (K = 0, say).  A certificate of the system restricted to the
       complement of those modes, re-checked on the whole system, answers
       ``feasible``; anything else is ``undecided``.

    Raises ValueError on a non-finite K and on a ``tol`` that is not a
    finite real >= 0 (NaN would switch off every residual test).  ``tol``
    defaults to 1e-6 * (1 + ||K||_F).  Answers without a certificate carry
    the cone point (0, 0, I) with its residual ||K||_F as ``certificate``.
    ``iterations`` counts the barrier's Newton steps: 0 on route 1 and
    when a test from (I, I) answers.  The witness tests allow for
    roundoff: an unstable mode needs |K v| > _WITNESS_SLACK * (1 + ||K||_2)
    for unit v, and a Farkas witness's blocks may have eigenvalues down to
    -_WITNESS_SLACK times its norm (see :class:`FarkasWitness` for what
    that still rules out).
    """
    K = np.asarray(K, dtype=float)
    if not np.all(np.isfinite(K)):
        raise ValueError("the gain must be finite")
    if K.shape != (dyn.m, dyn.n):
        raise ValueError(f"gain must be {dyn.m}x{dyn.n}, got shape {K.shape}")
    norm = _frobenius(K)
    tol = _check_real(1e-6 * (1.0 + norm) if tol is None else tol, "tol", 0.0)
    cert, witness, steps = _check(dyn.A, dyn.B, K, tol)
    verdict = ("feasible" if cert is not None
               else "undecided" if witness is None else "infeasible")
    if cert is None:  # the cone point (0, 0, I), the least residual at A = 0
        zero = np.zeros((dyn.n, dyn.n))
        cert = KalmanCertificate(P=zero, Q=zero, R=np.eye(dyn.m),
                                 residual=norm)
    return FeasibilityResult(certificate=cert, tol=tol, iterations=steps,
                             verdict=verdict, witness=witness)


def _check(A, B, K, tol):
    """:func:`check_kalman_feasible` on the pair (A, B), as every route's
    (certificate within tol or None, witness or None, Newton steps)."""
    lam, V = np.linalg.eig(A + B @ K)
    witness = _unstable_mode_witness(K, lam, V)
    if witness is not None:
        return None, witness, 0
    out = np.abs(lam) >= STABILITY_MARGIN
    if out.any():
        return _split_certificate(A, B, K, V[:, out], tol)
    return _ReducedCheck(A, B, K, tol).decide()
