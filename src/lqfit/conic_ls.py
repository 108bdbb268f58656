"""Convex subsolvers shared by policy fitting and the constrained fitter.

Contains the PSD-cone projection, the Huber penalty, the ridge/Huber
least-squares step in the gain K, the Kalman-constraint operator
:class:`KalmanOperator`, and a cone-constrained least-squares solver in the
triple (P, Q, R).  At a fixed gain K the operator is the bilinear map of
the LQR-optimality constraint,

    L(P, Q, R) = (Q + A^T P F - P,  R K + B^T P F),       F = A + B K,

and the (P, Q, R) problem is

    minimize ||L(P, Q, R) + (Y1, Y2)/rho||_F^2
    subject to P >= 0,  Q >= 0,  R >= I,

a linear least squares over a product of semidefinite cones, taken in an
orthonormal svec parameterization.  The map is written out once, in
:meth:`KalmanOperator.apply`, and applied to basis matrices in one place,
:meth:`KalmanOperator.columns`: its matrix in svec coordinates (the columns
of the svec basis) and the face columns of the polish are both read off
that, and every solver here and in :mod:`lqfit.riccati` reads one block svec
layout.  A cold call (no warm start) solves each gain by one barrier method,
on the one central path that the reduced optimality check of
:mod:`lqfit.riccati` runs too.  A warm call (ADMM's inexact inner step) runs
a fixed number of operator-splitting iterations (ADMM on the variable/copy
pair), keeps the lower of its start and its last iterate and "polishes" that
once, by an exact least squares on the active face of the cones.  A warm
stack (gains of one size) is run through the splitting loop in lockstep and
polished as one stack, with one face least squares per member.  The loop and
the polish share one padded stack and one floor array (0, 0, 1): the three
cone blocks of every member sit in an (S, 3, k, k) stack, k = max(n, m),
each in its slot's bottom-right corner with the rest of the slot's diagonal
at its floor, where an eigendecomposition is bit for bit the block's own.
Each splitting iteration projects it with one ``eigh`` call; the loop hands
its best point, picked member by member with masks, to the polish as that
stack, and the polish makes one eigendecomposition, one cone test and one
projection of it.  A warm call's eigendecompositions call numpy's LAPACK
gufuncs directly, under one error state entered once per call, and so do the
barrier's Newton steps (block inverses, the KKT solve, the domain test),
under one error state per step; numpy.linalg's wrappers would only check and
convert these float64 arrays, so the same LAPACK routine runs on the same
bytes.  Each member's result is bit for bit that of solving it alone.  What
depends only on the sizes is one svec layout per size, built once, with one
table per job (the gathers, the svec basis, the face bases' eigenvector
pairs), and the stacked system matrices are built once per tuple of systems.
The K step takes stacks too, as one batched solve of its normal equations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linsys import (_LAPACK, STABILITY_MARGIN, DemoSet, LinearDynamics,
                     _check_count, _check_real, _lapack_errors, _lowest,
                     _row_norms, _sym, solve_lyapunov_stein, spectral_radius)

_SQRT2 = math.sqrt(2.0)

# Relative eigenvalue gap above the cone floor that counts as off the
# boundary in the face polish.
_POLISH_ACT_TOL = 1e-5
# The two barrier methods (cold calls, the reduced check) share one central
# path; its centerings end at Newton decrement _CENTERED or after
# _CENTER_MAX steps.  A cold call stops at gap bound _BARRIER_GAP (1 + f),
# 14 to 21 centerings on the test problems, or after _BARRIER_ROUNDS.
_CENTERED, _CENTER_MAX = 1e-7, 50
_BARRIER_GAP, _BARRIER_ROUNDS = 1e-12, 60


class SingularFitError(RuntimeError):
    """Normal equations are singular (lambda = 0, rho = 0, rank-deficient data)."""


@dataclass(frozen=True)
class LossSpec:
    """Demonstration loss: squared Euclidean or entrywise Huber.

    For ``kind="quadratic"`` the per-pair loss is ||K x - u||_2^2; for
    ``kind="huber"`` it is the sum of the Huber penalty (threshold
    ``huber_m``) over the entries of K x - u.
    """

    kind: str = "quadratic"
    huber_m: float | None = None

    def __post_init__(self):
        if self.kind not in ("quadratic", "huber"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind == "huber":
            _check_real(self.huber_m, "huber_m", 0.0, strict=True)


@dataclass(frozen=True)
class RegularizerSpec:
    """Ridge regularizer r(K) = weight * ||K||_F^2."""

    kind: str = "ridge"
    weight: float = 0.01

    def __post_init__(self):
        if self.kind != "ridge":
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        _check_real(self.weight, "ridge weight", 0.0)


def project_psd(S: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Frobenius-nearest symmetric matrix with all eigenvalues >= floor.

    The input is symmetrized first; floor=0 is the PSD projection, floor=1
    projects onto {R : R >= I}.  A stack of matrices (leading axes) is
    projected matrix by matrix.  Raises ValueError unless S is a finite
    square matrix or stack of them and floor a finite real.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim < 2 or S.shape[-1] != S.shape[-2]:
        raise ValueError(f"S must be a square matrix or a stack of them, "
                         f"got shape {S.shape}")
    if not np.all(np.isfinite(S)):
        raise ValueError("S must be finite")
    floor = _check_real(floor, "floor", -math.inf)
    with _lapack_errors():
        return _project(S, floor)


def _project(S, floor):
    """:func:`project_psd` of a float64 stack, by a raw LAPACK call: the
    caller enters ``_lapack_errors()``."""
    w, V = _LAPACK.eigh_lo(_sym(S), signature="d->dd")
    Vt = V.swapaxes(-1, -2)
    return _sym(V @ (np.maximum(w, floor)[..., None] * Vt))


def huber_value(a: float, M: float):
    """Huber penalty: a^2/2 for |a| <= M, else M|a| - M^2/2."""
    _check_real(M, "huber parameter M", 0.0, strict=True)
    a = np.abs(np.asarray(a, dtype=float))
    out = np.where(a <= M, 0.5 * a * a, M * a - 0.5 * M * M)
    return float(out) if out.ndim == 0 else out


def _huber_weights(E: np.ndarray, M: float) -> np.ndarray:
    """Majorize-minimize weights: phi(e) <= (w/2) e^2 + const, w = min(1, M/|e|)."""
    a = np.abs(E)
    return np.where(a <= M, 1.0, M / np.maximum(a, M))


@dataclass(frozen=True, eq=False)
class DemoTerms:
    """The K step's terms that depend on the demonstrations alone.

    ``X`` and ``U`` are the pairs in canonical order, sorted
    lexicographically by (state, input): every fit reads them in this
    order, so its result is bit for bit the same under any permutation of
    the pairs.  ``D`` (m blocks of n x n) and ``rhs`` (m x n) are the Gram
    blocks and the right-hand side of the quadratic data term in the
    normal equations of row-major vec(K).
    """

    X: np.ndarray
    U: np.ndarray
    D: np.ndarray
    rhs: np.ndarray


def demo_terms(demos: DemoSet) -> DemoTerms:
    """The :class:`DemoTerms` of ``demos``; callers read them through
    ``demos.cached(demo_terms)``, which computes them once per DemoSet."""
    X, U = demos.states, demos.inputs
    order = np.lexsort(np.hstack([X, U]).T[::-1])
    X, U = X[order], U[order]
    ones = np.ones_like(U)
    terms = DemoTerms(X=X, U=U, D=_data_gram(ones, X),
                      rhs=_data_rhs(ones, X, U))
    for arr in (terms.X, terms.U, terms.D, terms.rhs):
        arr.flags.writeable = False
    return terms


def _data_gram(coeff, X):
    """The Gram blocks of the data term sum_{i,j} coeff[i,j] (K_j x_i -
    u_ij)^2, one n x n block per row of K."""
    return 2.0 * np.einsum("ij,ik,il->jkl", coeff, X, X)


def _data_rhs(coeff, X, U):
    """The right-hand side of the same data term, m x n."""
    return 2.0 * (coeff * U).T @ X


def _penalty_terms(rho, A, B, P, Q, R, Y1, Y2):
    """Hessian/rhs contribution of (rho/2)||[G K - H1; S K - H2]||_F^2,
    for stacks (a leading member axis on every matrix)."""
    At, Bt = A.swapaxes(-1, -2), B.swapaxes(-1, -2)
    G = At @ P @ B
    S = R + Bt @ P @ B
    H1 = P - Q - At @ P @ A - Y1 / rho
    H2 = -Bt @ P @ A - Y2 / rho
    Gt, St = G.swapaxes(-1, -2), S.swapaxes(-1, -2)
    return rho * (Gt @ G + St @ S), rho * (Gt @ H1 + St @ H2)


def _normal_solve(H0, D, rhs, n, m):
    """Solve the stacked normal equations of row-major vec(K): member i's
    matrix is H0[i] with the data Gram blocks D[i] added on its diagonal
    blocks, its right-hand side rhs[i] (m x n).  One batched solve."""
    H = H0.copy()
    for j in range(m):
        H[:, j * n:(j + 1) * n, j * n:(j + 1) * n] += D[:, j]
    try:
        x = np.linalg.solve(H, rhs.reshape(len(H), m * n, 1))
    except np.linalg.LinAlgError as e:
        raise SingularFitError("normal equations are singular") from e
    return x.reshape(len(H), m, n)


def solve_k_step(demos: DemoSet | list[DemoSet], loss: LossSpec,
                 reg: RegularizerSpec, rho: float, P=None, Q=None, R=None,
                 Y1=None, Y2=None,
                 dyn: LinearDynamics | list[LinearDynamics] | None = None
                 ) -> np.ndarray:
    """Minimize L(K) + r(K) + (rho/2)||[A'PB K - (P-Q-A'PA-Y1/rho);
    (R+B'PB) K - (-B'PA-Y2/rho)]||_F^2 over K.

    Exact linear solve for the quadratic loss; IRLS around the same solve
    for the Huber loss.  rho = 0 drops the penalty entirely (plain policy
    fitting) and needs neither the system nor (P, Q, R, Y1, Y2).  Raises
    ValueError unless rho is a finite real >= 0, or when rho > 0 and the
    system or one of P, Q, R, Y1 and Y2 is missing, and SingularFitError
    when lam = 0, rho = 0 and the demonstration states are rank deficient.

    P, Q, R, Y1 and Y2 may also carry a leading member axis, with
    ``demos`` and ``dyn`` each either shared or a list holding one entry
    per member (the systems of one size); the gains are then returned as
    one (S, m, n) stack.  A single call is a stack of one.  The penalty
    terms are stacked matmuls and the normal equations one batched solve;
    the terms that depend on the demonstrations alone are read from
    ``demos.cached(demo_terms)``.  Huber IRLS reweights member by member
    (the members' demonstration counts differ) and stops each member on
    its own test.  Each member's gain is bit for bit that of its own call.
    """
    _check_real(rho, "rho", 0.0)
    lead = P is not None and np.ndim(P) == 3
    count = len(P) if lead else 1
    terms = [d.cached(demo_terms) for d in per_member(demos, count)]
    n, m = terms[0].X.shape[1], terms[0].U.shape[1]
    lam = reg.weight
    if rho > 0:
        if dyn is None:
            raise ValueError("rho > 0 needs the system")
        for name, M in zip(("P", "Q", "R", "Y1", "Y2"), (P, Q, R, Y1, Y2)):
            if M is None:
                raise ValueError(f"rho > 0 needs {name}")
        A, B = _stacked_systems(dyn, count)
        Ps, Qs, Rs, Y1s, Y2s = (np.asarray(M, dtype=float).reshape(
            (count,) + np.shape(M)[-2:]) for M in (P, Q, R, Y1, Y2))
        pen_H, pen_rhs = _penalty_terms(rho, A, B, Ps, Qs, Rs, Y1s, Y2s)
    else:
        pen_H, pen_rhs = np.zeros((count, m, m)), np.zeros((count, m, n))
    if lam == 0.0 and rho == 0.0 and any(
            np.linalg.matrix_rank(t.X) < n for t in terms):
        raise SingularFitError(
            "rank-deficient demonstrations with no regularization")
    # kron(pen_H, I_n) + 2 lam I, member by member
    H0 = ((pen_H[:, :, None, :, None] * np.eye(n)[:, None, :]).reshape(
        count, m * n, m * n) + 2.0 * lam * np.eye(m * n))
    K = _normal_solve(H0, np.stack([t.D for t in terms]),
                      np.stack([t.rhs for t in terms]) + pen_rhs, n, m)
    if loss.kind == "huber":
        K = _huber_irls(K, terms, loss.huber_m, H0, pen_rhs, n, m)
    return K if lead else K[0]


def _huber_irls(K, terms, M, H0, pen_rhs, n, m):
    """IRLS for the Huber loss from the quadratic-loss gains K: each
    member stops once its gain moves less than 1e-9 (Frobenius), or after
    100 reweightings, and leaves the stacked solve."""
    act = np.arange(len(K))
    for _ in range(100):
        D, rhs = [], []
        for i in act:
            t = terms[i]
            coeff = 0.5 * _huber_weights(t.X @ K[i].T - t.U, M)
            D.append(_data_gram(coeff, t.X))
            rhs.append(_data_rhs(coeff, t.X, t.U))
        K_new = _normal_solve(H0[act], np.stack(D), np.stack(rhs)
                              + pen_rhs[act], n, m)
        still = ~(_row_norms((K_new - K[act]).reshape(len(act), -1)) < 1e-9)
        K[act] = K_new
        act = act[still]
        if not len(act):
            break
    return K


@dataclass(frozen=True, eq=False)
class PqrStepResult:
    """Cone-feasible (P, Q, R) with solver diagnostics.

    ``objective`` is the subproblem value at (P, Q, R).  ``iterations`` is
    the splitting budget ``max_iter`` after a warm call and the number of
    Newton steps after a cold one.  ``gap`` is the barrier's gap estimate
    (nu + <W, y>) / t at its last centering, an estimate and not a proven
    bound, and ``converged`` means that the gap test ``gap`` < 1e-12 (1 +
    f) held there, f the objective at that point.  A warm call runs no gap
    test: it reports ``converged`` False and ``gap`` inf.  ``dual`` is
    opaque warm-start state for the next call: the splitting dual after a
    warm call, zeros after a cold one.  For a stack every field but
    ``iterations`` has a leading member axis.
    """

    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    objective: float
    iterations: int
    converged: bool
    gap: float
    dual: np.ndarray


class _SvecLayout:
    """Orthonormal svec coordinates of a block of symmetric matrices, of
    the sizes ``sizes``, one block after another: the one place that knows
    their order, with one table per job.

    ``join`` sends the matrices (or stacks of them, along leading axes) to
    their svec point: it gathers their row-major entries, one matrix after
    another, at ``up`` (each coordinate's upper triangle entry) and scales
    them by ``scale`` (1 on diagonal coordinates, sqrt 2 off them).
    ``cuts`` holds the blocks' offsets in svec order.  ``split`` undoes
    ``join`` through the padded layout: each block in the bottom-right
    corner of a k x k slot, k the largest size, zeros elsewhere; ``blocks``
    reads the blocks off any stack in that layout, as views.
    ``pad_pos`` is the svec position of every entry of that (blocks, k, k)
    stack, or ``cuts[-1]`` on a pad entry: a gather from the svec point
    with one zero appended.  ``pad_uplo`` holds the flat padded positions
    of every coordinate's upper and lower triangle entries, as one (2,
    dim, 1) index.  ``basis`` holds the diagonal blocks of ``split`` of
    the identity: each block's matrices of its own unit vectors, the
    operator basis of :meth:`KalmanOperator.matrix`.  The arrays are
    read-only.
    """

    def __init__(self, sizes):
        self.sizes = sizes
        iu = [np.triu_indices(k) for k in sizes]
        self.cuts = tuple(np.cumsum([0] + [len(i) for i, _ in iu]).tolist())
        dim = self.cuts[-1]
        flat = np.cumsum([0] + [k * k for k in sizes])
        self.scale = np.concatenate([np.where(i == j, 1.0, _SQRT2)
                                     for i, j in iu])
        self.up = np.concatenate([f + i * k + j for k, f, (i, j)
                                  in zip(sizes, flat, iu)])
        # block b's entry (i, j) at (b, k - size + i, k - size + j), padded
        k = max(sizes)
        corner = [b * k * k + (k - s) * (k + 1) for b, s in enumerate(sizes)]
        self.pad_uplo = np.stack([
            np.concatenate([c + i * k + j for c, (i, j) in zip(corner, iu)]),
            np.concatenate([c + j * k + i for c, (i, j) in zip(corner, iu)])
        ])[..., None]
        pad_pos = np.full(len(sizes) * k * k, dim, dtype=np.intp)
        pad_pos[self.pad_uplo[..., 0]] = np.arange(dim)
        self.pad_pos = pad_pos.reshape(len(sizes), k, k)
        self.basis = tuple(E[a:b] for E, a, b in zip(
            self.split(np.eye(dim)), self.cuts, self.cuts[1:]))
        for arr in (self.scale, self.up, self.pad_uplo, self.pad_pos,
                    *self.basis):
            arr.flags.writeable = False

    def join(self, Xs):
        """The svec point of the blocks ``Xs``."""
        entries = np.concatenate([X.reshape(X.shape[:-2] + (-1,))
                                  for X in Xs], axis=-1)
        return entries.take(self.up, axis=-1) * self.scale

    def split(self, y):
        """The blocks of the svec point ``y``: :meth:`join` undone, as the
        :meth:`blocks` of one new zero-padded (..., blocks, k, k) array."""
        ys = np.zeros(y.shape[:-1] + (self.cuts[-1] + 1,))
        np.divide(y, self.scale, out=ys[..., :-1])
        return self.blocks(ys.take(self.pad_pos, axis=-1))

    def blocks(self, padded):
        """The blocks of a padded (..., blocks, k, k) stack, as views: each
        its slot's bottom-right corner."""
        k = padded.shape[-1]
        return [padded[..., b, k - s:, k - s:]
                for b, s in enumerate(self.sizes)]


@functools.lru_cache(maxsize=None)
def _svec(*sizes) -> _SvecLayout:
    return _SvecLayout(sizes)


class KalmanOperator:
    """The Kalman-constraint map at a fixed gain K.

    ``apply(P, Q, R) = (Q + A^T P F - P, R K + B^T P F)`` with F = A + B K;
    the constraint of an LQR-optimal K is ``apply(P, Q, R) = 0`` over
    P >= 0, Q >= 0, R >= I.  ``apply`` broadcasts over stacks of matrices,
    and it is the only place the map is written out: ``columns`` applies it
    to stacks of basis matrices, each in its own block, and ``matrix()`` is
    ``columns`` of the svec basis, the map in coordinates: it sends the
    concatenated orthonormal svec of (P, Q, R) to the row-major ravel of
    (M1, M2).
    A, B and K may carry a leading member axis: the operator is then a
    stack of operators of one size, and each member's matrices and values
    are bit for bit those of its own operator.
    """

    def __init__(self, A, B, K):
        self.A, self.B = A, B
        self.K = np.asarray(K, dtype=float)
        self.F = A + B @ self.K
        self.n, self.m = A.shape[-1], B.shape[-1]

    def take(self, index):
        """Member ``index`` of a stacked operator (an int), or the smaller
        stack of the members ``index``."""
        op = KalmanOperator.__new__(KalmanOperator)
        op.A, op.B, op.K, op.F = (getattr(self, f)[index]
                                  for f in ("A", "B", "K", "F"))
        op.n, op.m = self.n, self.m
        return op

    def apply(self, P, Q, R):
        A, B, F = self.A, self.B, self.F
        return (Q + A.swapaxes(-1, -2) @ P @ F - P,
                R @ self.K + B.swapaxes(-1, -2) @ P @ F)

    def objective(self, P, Q, R, T1=0.0, T2=0.0):
        """||apply(P, Q, R) + (T1, T2)||_F^2: a float, or an array of one
        value per matrix for stacks."""
        M1, M2 = self.apply(P, Q, R)
        M1 = M1 + T1
        M2 = M2 + T2
        f = np.sum(M1 * M1, axis=(-2, -1)) + np.sum(M2 * M2, axis=(-2, -1))
        return float(f) if f.ndim == 0 else f

    def columns(self, EP, EQ, ER):
        """The matrix whose columns are ``apply`` of each matrix of the
        stacks EP, EQ and ER, in that order, each in its own block (P, Q or
        R) with the other two zero; the stacks run along the axis before
        the matrix axes.  For a stacked operator they may also carry its
        member axis in front (all three alike), one set of matrices per
        member.  The only code that applies the map to basis matrices."""
        Es = (EP, EQ, ER)
        cuts = np.cumsum([0] + [E.shape[-3] for E in Es])
        Ps, Qs, Rs = (np.zeros(EP.shape[:-3] + (cuts[-1],) + E.shape[-2:])
                      for E in Es)
        for X, E, a, b in zip((Ps, Qs, Rs), Es, cuts, cuts[1:]):
            X[..., a:b, :, :] = E
        # one operator per stack of matrices
        M1, M2 = self.take(np.s_[..., None, :, :]).apply(Ps, Qs, Rs)
        return np.concatenate([M.reshape(M.shape[:-2] + (-1,)).swapaxes(
            -1, -2) for M in (M1, M2)], axis=-2)

    def matrix(self) -> np.ndarray:
        """(n*n + m*n) x (2 dim_n + dim_m): :meth:`columns` of the svec
        basis of (P, Q, R), so column j is apply of the j-th svec unit
        vector; one such matrix per member for a stack."""
        return self.columns(*_svec(self.n, self.n, self.m).basis)


def _face_bases(w, V, floor):
    """The face bases of {X >= floor I} at a stack of matrices with
    eigenpairs (w, V), at full width: for every pair i <= j of eigenvectors,
    in triu order, the matrix (v_i v_j^T + v_j v_i^T) / (2 or sqrt 2); and
    whether it lies in the face active at the matrix, that is, whether both
    eigenvalues exceed floor by more than _POLISH_ACT_TOL (relative)."""
    svec = _svec(w.shape[-1])
    i, j = np.divmod(svec.up, w.shape[-1])
    Vt = V.swapaxes(-1, -2)
    O = Vt[..., i, :, None] * Vt[..., j, None, :]
    on = (w - floor) > _POLISH_ACT_TOL * (1.0 + w.max(axis=-1, initial=0.0,
                                                      keepdims=True))
    # the divisor is 1 + 1 = 2 on the diagonal and sqrt 2 off it, exactly
    return ((O + O.swapaxes(-1, -2)) / (svec.scale + (i == j))[:, None, None],
            on[..., i] & on[..., j])


def _reaches(w, floor):
    """Whether the eigenvalues w (last axis) all reach floor, up to 1e-9
    relative; floor broadcasts against w."""
    return (w >= floor - 1e-9 * (1.0 + np.abs(w).max(axis=-1, keepdims=True))
            ).all(axis=-1)


def _polish(op, T1, T2, f, X, floor):
    """Exact least squares on the active face of the cones, for a stack.

    Member i is the problem of ``op.take(i)`` (a stacked operator) with
    offsets (T1[i], T2[i]) at the point X[i] of objective f[i].  X is the
    splitting loop's padded (S, 3, k, k) stack of (P, Q, R), the rest of
    each slot's diagonal at ``floor``, the loop's (3, 1) per-block floors.
    The pad's eigenvalues sit at the floor, off the face, so each slot's
    face, reconstruction floor I + sum theta E, cone test and projection
    are its block's.  The face, read off the eigenstructure at
    _POLISH_ACT_TOL, gives the nearest correction within it, accepted only
    if cone-feasible and lower.  One eigendecomposition, one face-basis
    build (at full width, pairs off the face held at theta = 0) with its
    operator columns, one reconstruction, one cone test and one projection
    serve every block of the stack.  Each block's theta is a sum over its
    own corner, as the block alone sums it, and the face least squares is
    one ``lstsq`` per member on its own face columns, so each member's
    result is bit for bit that of polishing it alone.  Returns new arrays
    (f, X), each member the lower of its point and its polished point (its
    point on ties).  Its eigendecompositions are raw LAPACK calls: the
    caller enters ``_lapack_errors()``.
    """
    S, k = X.shape[0], X.shape[-1]
    svec = _svec(op.n, op.n, op.m)
    E, on = _face_bases(*_LAPACK.eigh_lo(_sym(X), signature="d->dd"), floor)
    # one stack of face matrices per block, each in its corner
    Es = svec.blocks(E.swapaxes(1, 2))
    cols = op.columns(*Es)
    base = floor[..., None] * np.eye(k)
    theta = np.concatenate([np.sum(Eb * Db, axis=(-2, -1)) for Eb, Db
                            in zip(Es, svec.blocks((X - base)[:, None]))],
                           axis=1)
    c = np.concatenate([T1.reshape(S, -1), (op.K + T2).reshape(S, -1)],
                       axis=1)
    for t, on_i, cols_i, c_i in zip(theta, on.reshape(S, -1), cols, c):
        # in C order: the rounding of Mt @ t depends on the memory layout
        Mt = cols_i[:, on_i].copy()
        dth, *_ = np.linalg.lstsq(Mt, -(Mt @ t[on_i] + c_i), rcond=None)
        t[on_i] += dth
        t[~on_i] = 0.0
    # floor I + sum_k theta_k E_k, added in order: numpy reduces an outer
    # axis term by term.  The sums are exactly symmetric, as every E_k is.
    Xn = np.add.reduce(np.concatenate(
        [np.broadcast_to(base[:, None], (S, 3, 1, k, k)),
         theta.reshape(S, 3, -1, 1, 1) * E], axis=2), axis=2)
    ok = _reaches(_LAPACK.eigvalsh_lo(Xn, signature="d->d"), floor).all(
        axis=-1)
    f, X = f.copy(), X.copy()
    if ok.any():
        done = np.flatnonzero(ok)
        Xn = _project(Xn[ok], floor)
        fn = op.take(done).objective(*svec.blocks(Xn), T1[done], T2[done])
        lower = fn < f[done]
        f[done[lower]], X[done[lower]] = fn[lower], Xn[lower]
    return f, X


def _split(op, Mat, G, T1, T2, P0, Q0, R0, u0, max_iter):
    """The splitting loop for a stack of problems, advanced in lockstep.

    Member i is the problem of ``op.take(i)`` (a stacked operator, with
    its matrices ``Mat`` and G = 2 Mat^T Mat) with offsets (T1[i], T2[i]),
    started from (P0[i], Q0[i], R0[i]) and the dual u0[i].  Every member
    runs ``max_iter`` iterations at its own fixed penalty; the stacked
    steps (the x solve, the cone projection) work matrix by matrix and
    column by column, on (S, dim, 1) columns z, u and x.  The three cone
    blocks P, Q and R are projected together, by one ``eigh`` and one
    ``matmul`` per iteration, on a zero-padded (S, 3, k, k) stack, k =
    max(n, m), each block in the bottom-right corner of its slot (the
    padded layout of :class:`_SvecLayout`) and one floor per block, (0, 0,
    1).  The projection of a block so padded is bit for bit that of the
    block alone: LAPACK's tridiagonal reduction passes over the pad's rows,
    zero off the diagonal, with identity reflectors and the eigensolver
    splits there, so the pad adds only exact zeros.  (With the block
    top-left, longer reflectors change its last bits.  A 1 x 1 block whose
    entry lies outside LAPACK's unscaled range, about 1e+-146, can differ
    in its last bit, in the loop and in the polish: LAPACK scales it when
    padded, not alone.)  The projection leaves each pad diagonal at its
    block's floor; the start is padded alike, and the lower of each
    member's start and last iterate is polished as one padded stack with
    the same floors (:func:`_polish`).  So every member's result is bit
    for bit the result of running it alone.  The whole body, the polish
    included, runs under one ``_lapack_errors()`` (the error state that
    ``np.linalg.eigh`` enters on every call) and calls the LAPACK gufuncs
    directly: on these float64 stacks, exactly symmetric in the loop, the
    public wrappers only check and convert, so the same routine runs on
    the same bytes.  Any invalid operation in the body, not only a LAPACK
    failure, raises LinAlgError.  Returns stacked arrays (f, P, Q, R,
    dual): the blocks of the polished stack, f the objective there, and
    the dual of the last iteration.
    """
    with _lapack_errors():
        n, m, p = op.n, op.m, Mat.shape[-1]
        k = max(n, m)
        svec = _svec(n, n, m)
        pad_pos, pad_uplo = svec.pad_pos, svec.pad_uplo
        scale = svec.scale[:, None]
        # (a + b) * (0.5 scale) rounds as 0.5 (a + b) scale: halving is
        # exact
        half_scale = 0.5 * scale
        floor = np.array([0.0, 0.0, 1.0])[:, None]
        alpha = 1.6
        beta = 1.0 - alpha
        S = len(T1)
        u = (np.zeros((S, p, 1)) if u0 is None
             else np.array(u0, dtype=float).reshape(S, p, 1))
        z = svec.join([P0, Q0, R0]).reshape(S, p, 1)
        c = np.concatenate([T1.reshape(S, -1), T2.reshape(S, -1)], axis=1)
        q = 2.0 * (Mat.swapaxes(-1, -2) @ c[:, :, None])
        # positive: G's diagonal is 2 at each Q coordinate (a unit M1
        # block)
        sig = (np.trace(G, axis1=1, axis2=2) / p)[:, None, None]
        Minv = np.linalg.inv(G + sig * np.eye(p))
        # buffers written in place every iteration: v / scale with one
        # trailing zero row, the pad entries' source; the padded cone
        # blocks of v; their projection; both triangles of the projection
        vs = np.zeros((S, p + 1, 1))
        blocks = np.empty((S, 3, k, k))
        proj = np.empty((S, 3, k, k))
        tri = np.empty((S,) + pad_uplo.shape)
        up, lo = tri[:, 0], tri[:, 1]
        for _ in range(max_iter):
            x = Minv @ (sig * (z - u) - q)
            xr = alpha * x + beta * z
            np.divide(xr + u, scale, out=vs[:, :p])
            # the padded blocks as exactly symmetric matrices, so eigh needs
            # no symmetrization (every index is in range: "clip" only spares
            # take a buffer)
            vs.take(pad_pos, axis=1, out=blocks[..., None], mode="clip")
            w, V = _LAPACK.eigh_lo(blocks, signature="d->dd")
            np.matmul(V, np.maximum(w, floor)[..., None]
                      * V.swapaxes(-1, -2), out=proj)
            # svec of the symmetrized projection, read off both triangles
            proj.reshape(S, -1).take(pad_uplo, axis=1, out=tri, mode="clip")
            z = (up + lo) * half_scale
            u += xr - z
        X = _sym(proj)
        f0 = op.objective(P0, Q0, R0, T1, T2)
        f = op.objective(*svec.blocks(X), T1, T2)
        # the lower of start and last iterate, the start on ties, written
        # into the last iterate's corners (its pad is at the floors)
        start = ~(f < f0)
        for B, M in zip(svec.blocks(X), (P0, Q0, R0)):
            B[start] = M[start]
        f, X = _polish(op, T1, T2, np.where(start, f0, f), X, floor)
        return (f, *svec.blocks(X), u[:, :, 0])


def _central_path(svec, C, z, t, w, grad, hess=lambda t: 0.0, a=None):
    """Yield (z, t, Newton steps so far) after each centering of a barrier
    method at t, 10 t, 100 t, ... (Boyd & Vandenberghe, *Convex
    Optimization*, 10.2 and 11.3).  The centering at t minimizes t f(z) +
    <w, z> - sum log det X over the blocks X of ``svec.split(C z)``,
    keeping ``a`` z fixed (rows of equality constraints, default none);
    ``grad(z, t)`` and ``hess(t)`` are the gradient and Hessian of t f.
    Newton steps are damped by 1 / (1 + decrement) while it exceeds 0.25.
    A centering ends at decrement _CENTERED, at a step out of the domain
    or after _CENTER_MAX steps; the path ends, after yielding the point
    reached, at a singular block or Newton system, or at any invalid
    operation in a step.  Each step calls LAPACK's gufuncs directly (the
    block inverses, the KKT solve, the domain test's eigenvalues) under one
    ``_lapack_errors()``, entered and left within the step: an error state
    held across a ``yield`` would leak into the caller's code.
    """
    D, steps, p = svec.split(C.T), 0, len(z)
    a = np.zeros((0, p)) if a is None else a
    kkt, rhs = np.zeros((p + len(a), p + len(a))), np.zeros(p + len(a))
    kkt[p:, :p], kkt[:p, p:] = a, a.T
    while True:
        try:
            for _ in range(_CENTER_MAX):
                steps += 1
                with _lapack_errors():
                    inv = [_LAPACK.inv(X, signature="d->d")
                           for X in svec.split(C @ z)]
                    kkt[:p, :p] = svec.join([Xi @ Dk @ Xi for Xi, Dk
                                             in zip(inv, D)]) @ C + hess(t)
                    rhs[:p] = C.T @ svec.join(inv) - w - grad(z, t)
                    dz = _LAPACK.solve1(kkt, rhs, signature="dd->d")[:p]
                    decrement = math.sqrt(max(rhs[:p] @ dz, 0.0))
                    if not decrement > _CENTERED:
                        break
                    # inside the domain by self-concordance, up to roundoff
                    step = z + dz / (1.0 + decrement if decrement > 0.25
                                     else 1.0)
                    if not min(map(_lowest, svec.split(C @ step))) > 0.0:
                        break
                z = step
        except np.linalg.LinAlgError:
            yield z, t, steps
            return
        yield z, t, steps
        t *= 10.0


def _barrier(op, Mat, G, T1, T2):
    """Solve the problem of ``op`` (one member, with its matrix ``Mat`` and
    G = 2 Mat^T Mat) with offsets (T1, T2) on :func:`_central_path`: over
    y = svec(P, Q, R - I), minimize t f(y) + <W, y> - log det P - log det Q
    - log det(R - I), f = ||apply(P, Q, R) + (T1, T2)||^2 = ||Mat y +
    c||^2, from t = nu / (1 + f(y0)), nu = 2n + m.

    The start y0 is (P, Q, R) = 2 (Lyap(F, I + K'K), I, I) if F is stable
    (zero residual when K is optimal for unit weights), else (I, I, 2I).
    W = y0^-1 blockwise makes y0 the center as t -> 0 and keeps a center
    when a zero-residual direction lies inside the cones (an optimal K, or
    K = 0), where a plain barrier has none.  It stops once the gap bound
    (nu + <W, y>) / t, a bound at a center while <W, y*> <= 2 <W, y> at
    the optimum y*, is below _BARRIER_GAP (1 + f), after _BARRIER_ROUNDS
    centerings, or where the path ends.  Returns (objective, P, Q, R,
    Newton steps, whether the gap test held, the gap estimate).
    """
    n, m = op.n, op.m
    svec = _svec(n, n, m)
    c = np.concatenate([T1.ravel(), (op.K + T2).ravel()])
    if spectral_radius(op.F) < STABILITY_MARGIN:
        start = (2.0 * solve_lyapunov_stein(op.F, np.eye(n) + op.K.T @ op.K),
                 2.0 * np.eye(n), np.eye(m))
    else:
        start = (np.eye(n), np.eye(n), np.eye(m))
    def f(y):
        r = Mat @ y + c
        return r @ r

    with _lapack_errors():
        w = svec.join([_LAPACK.inv(X, signature="d->d") for X in start])
    y, nu = svec.join(start), 2 * n + m
    path = _central_path(svec, np.eye(len(y)), y, nu / (1.0 + f(y)), w,
                         lambda y, t: 2.0 * t * ((Mat @ y + c) @ Mat),
                         lambda t: t * G)
    for _, (y, t, steps) in zip(range(_BARRIER_ROUNDS), path):
        gap = (nu + w @ y) / t
        converged = gap < _BARRIER_GAP * (1.0 + f(y))
        if converged:
            break
    P, Q, D = svec.split(y)
    R = D + np.eye(m)
    return op.objective(P, Q, R, T1, T2), P, Q, R, steps, converged, gap


def _stacked_systems(dyn, count: int):
    """The A and B matrices of ``dyn``, one system or a list of one per
    member, as read-only stacks of ``count``."""
    return _stack_systems(tuple(per_member(dyn, count)))


@functools.lru_cache(maxsize=16)
def _stack_systems(systems):
    """:func:`_stacked_systems` of a tuple of systems, built once per tuple:
    one ADMM sweep reads the same stacks three times, and every sweep of a
    batch the same tuple.  A system's arrays are read-only, so the stacks
    cannot go stale."""
    A, B = np.stack([d.A for d in systems]), np.stack([d.B for d in systems])
    A.flags.writeable = B.flags.writeable = False
    return A, B


def per_member(value, count: int) -> list:
    """``value`` once per member of a stack of ``count``: a list or tuple
    holds one entry per member and must have ``count`` of them; any other
    value is shared by every member."""
    if isinstance(value, (list, tuple)):
        if len(value) != count:
            raise ValueError(f"expected one entry per member ({count}), "
                             f"got {len(value)}")
        return list(value)
    return [value] * count


def solve_pqr_step(dyn: LinearDynamics | list[LinearDynamics], K, Y1, Y2,
                   rho: float, max_iter: int = 4000, init=None,
                   dual0=None) -> PqrStepResult:
    """Cone-constrained least squares in (P, Q, R) for a fixed gain K.

    ``init`` is an optional (P0, Q0, R0) warm start and ``dual0`` the
    ``dual`` field of a previous result (default zeros).  A cold call (no
    ``init``) solves each gain by one barrier method, from 2 (Lyap(F, I +
    K^T K), I, I) if F = A + B K is stable (a certificate when K is optimal
    for unit weights), else from (I, I, 2I).  A warm call runs exactly
    ``max_iter`` splitting iterations from ``init``, then returns the
    lower of its start and its last iterate, polished on its face: never
    worse than the start; it runs no gap test, so it reports ``converged``
    False and ``gap`` inf.  ``max_iter`` must be an integer (not a bool) of
    at least 1, and ``iterations`` is an int; a cold call does not use
    ``max_iter`` otherwise.  K, Y1, Y2, Y1 / rho, Y2 / rho, ``init`` and
    ``dual0`` must be finite: the call raises ValueError, before any work,
    on a non-finite entry or a wrong shape.

    K may also be a stack of gains, shape (S, m, n), with Y1, Y2, the
    matrices of ``init`` and ``dual0`` stacked alike, and ``dyn`` either
    one system for the whole stack or a list of S systems of one size,
    the i-th for the i-th gain.  A warm stack runs the splitting loop and
    the polish once for the whole stack, on stacked arrays.  Every field of
    the result gains a leading axis except ``iterations``, the most any
    member took.  Each member's result is bit for bit that of its own call,
    and a single gain's result is member 0 of its stack of one, with Python
    scalars for ``objective``, ``converged`` and ``gap``.
    """
    _check_real(rho, "rho", 0.0, strict=True)
    max_iter = _check_count(max_iter, "max_iter", 1)
    K = np.asarray(K, dtype=float)
    single = K.ndim == 2
    systems = per_member(dyn, len(K) if K.ndim == 3 else 1)
    n, m = systems[0].n, systems[0].m
    if K.shape[-2:] != (m, n) or K.ndim not in (2, 3):
        raise ValueError(f"gain must be {m}x{n} or a stack of {m}x{n}, "
                         f"got shape {K.shape}")
    if any((d.n, d.m) != (n, m) for d in systems):
        raise ValueError("the systems of a stack must share one size")

    def stacked(name, M, shape):
        """M as a stack, once its shape is K's stack axis then ``shape``
        and its entries are finite."""
        M = np.asarray(M, dtype=float)
        if M.shape != K.shape[:-2] + shape:
            raise ValueError(f"{name} must have shape {K.shape[:-2] + shape}"
                             f", got {M.shape}")
        if not np.isfinite(M).all():
            raise ValueError(f"{name} must be finite")
        return M[None] if single else M

    Ks = stacked("K", K, (m, n))
    with np.errstate(over="ignore"):
        T1 = stacked("Y1", Y1, (n, n)) / rho
        T2 = stacked("Y2", Y2, (m, n)) / rho
    for name, T in (("Y1 / rho", T1), ("Y2 / rho", T2)):
        if not np.isfinite(T).all():
            raise ValueError(f"{name} must be finite")
    if init is not None:
        P0, Q0, R0 = init
        start = (stacked("init P0", P0, (n, n)),
                 stacked("init Q0", Q0, (n, n)),
                 stacked("init R0", R0, (m, m)))
    p = _svec(n, n, m).cuts[-1]
    u0 = None if dual0 is None else stacked("dual0", dual0, (p,))
    op = KalmanOperator(*_stacked_systems(systems, len(Ks)), Ks)
    Mat = op.matrix()
    G = 2.0 * (Mat.swapaxes(-1, -2) @ Mat)
    if init is None:
        f, P, Q, R, steps, converged, gap = map(np.array, zip(*(
            _barrier(op.take(i), Mat[i], G[i], T1[i], T2[i])
            for i in range(len(Ks)))))
        iterations = int(steps.max())
        dual = np.zeros((len(Ks), p))
    else:
        f, P, Q, R, dual = _split(op, Mat, G, T1, T2, *start, u0, max_iter)
        iterations = max_iter
        converged, gap = np.zeros(len(Ks), bool), np.full(len(Ks), math.inf)
    if single:
        P, Q, R, dual = P[0], Q[0], R[0], dual[0]
        f, converged, gap = (x[0].item() for x in (f, converged, gap))
    return PqrStepResult(P=P, Q=Q, R=R, objective=f, iterations=iterations,
                         converged=converged, gap=gap, dual=dual)
