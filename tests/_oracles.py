"""Independent reference implementations used only by the tests.

Kept deliberately separate from the library code paths: the projected
gradient and barrier solvers here share no code with the library's
(P, Q, R) solvers they cross-check. They assemble the constraint map from
its matrix formula; the first projects with its own eigendecompositions,
the second has its own coordinates, Newton steps, line search and gap
bound.
"""

import numpy as np


def _sym(M):
    return 0.5 * (M + M.T)


def _lipschitz(A, B, K, n, m, iters=200, seed=0):
    """Power iteration on the quadratic form's Hessian operator."""
    rng = np.random.default_rng(seed)
    F = A + B @ K
    P = _sym(rng.standard_normal((n, n)))
    Q = _sym(rng.standard_normal((n, n)))
    R = _sym(rng.standard_normal((m, m)))
    lam = 1.0
    for _ in range(iters):
        D1 = Q + A.T @ P @ F - P
        D2 = R @ K + B.T @ P @ F
        hP = 2.0 * _sym(A @ D1 @ F.T - D1 + B @ D2 @ F.T)
        hQ = 2.0 * _sym(D1)
        hR = 2.0 * _sym(D2 @ K.T)
        lam = np.sqrt(sum(np.sum(M * M) for M in (hP, hQ, hR)))
        if lam < 1e-300:
            return 1.0
        P, Q, R = hP / lam, hQ / lam, hR / lam
    return lam


def _residual_map(A, B, K, k):
    """The linear part of (P, Q, D) -> (M1, M2), with D = R - I, as a matrix.

    Rows are the row-major entries of M1 = Q + A'PF - P and M2 = RK + B'PF;
    columns are the row-major entries of a (3, k, k) stack holding P, Q and
    D in its top-left corners. Each column is the formula applied to a unit
    matrix; columns of padding entries stay zero.
    """
    n, m = A.shape[0], B.shape[1]
    F = A + B @ K
    J = np.zeros((n * n + m * n, 3 * k * k))
    for b, size in enumerate((n, n, m)):
        for i in range(size):
            for j in range(size):
                P, Q, R = np.zeros((n, n)), np.zeros((n, n)), np.zeros((m, m))
                (P, Q, R)[b][i, j] = 1.0
                M1 = Q + A.T @ P @ F - P
                M2 = R @ K + B.T @ P @ F
                J[:, (b * k + i) * k + j] = np.concatenate([M1.ravel(),
                                                            M2.ravel()])
    return J


def pqr_projected_gradient(A, B, K, Y1, Y2, rho, max_iter=100_000,
                           rel_tol=1e-10):
    """Plain projected gradient on the joint (P, Q, R) problem.

    Fixed step 1/L with L from power iteration; cone projections P >= 0,
    Q >= 0, R >= I, the last as R = I + D with D >= 0, so one stacked
    eigendecomposition projects all three. Returns (P, Q, R, objective,
    iterations).
    """
    n, m = A.shape[0], B.shape[1]
    k = max(n, m)
    J = _residual_map(A, B, K, k)
    G = 2.0 * J.T
    # the residual at P = Q = 0, R = I
    c = np.concatenate([(Y1 / rho).ravel(), (K + Y2 / rho).ravel()])
    t = 1.0 / (1.05 * _lipschitz(A, B, K, n, m))
    S = np.zeros((3, k, k))
    r = c
    f = float(r @ r)
    it = 0
    for it in range(max_iter):
        S = S - t * (G @ r).reshape(3, k, k)
        S = 0.5 * (S + S.transpose(0, 2, 1))
        w, V = np.linalg.eigh(S)
        S = (V * np.maximum(w, 0.0)[:, None, :]) @ V.transpose(0, 2, 1)
        S = 0.5 * (S + S.transpose(0, 2, 1))
        r = J @ S.ravel() + c
        fn = float(r @ r)
        if it > 50 and f - fn < rel_tol * (1.0 + f):
            f = fn
            break
        f = fn
    return S[0, :n, :n], S[1, :n, :n], S[2, :m, :m] + np.eye(m), f, it + 1


def _lifting(n, m, k):
    """The upper-triangle entries of P, Q (n x n) and D (m x m), one
    coordinate each, into the _residual_map columns: a (3 k k) x count 0/1
    matrix setting entries (i, j) and (j, i) of the block's corner."""
    cols = []
    for b, size in enumerate((n, n, m)):
        for i in range(size):
            for j in range(i, size):
                col = np.zeros((3, k, k))
                col[b, i, j] = col[b, j, i] = 1.0
                cols.append(col.ravel())
    return np.array(cols).T


def _positive(blocks):
    """Whether every block has a Cholesky factor."""
    try:
        for X in blocks:
            np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        return False
    return True


def pqr_barrier(A, B, K, Y1, Y2, rho, rel_gap=1e-10, center_cap=200):
    """An interior-point solve of the joint (P, Q, R) problem.

    The variables v are the upper-triangle entries of P, Q and D = R - I,
    lifted into the _residual_map columns. For t = 1, 20, 400, ... it
    centers psi = t f(v) + tr P + tr Q + tr D - log det P - log det Q
    - log det D by Newton's method with a backtracking (Armijo, factor 1/2)
    line search, until the squared Newton decrement is below 1e-6 (a point
    that close to the center moves the bound below by a relative 1e-3 at
    most, and roundoff keeps large t from going much lower). The
    line search reads psi's change along the step exactly: a quadratic in
    the step for t f plus the trace term, and sum -log(1 + s mu) over the
    eigenvalues mu of each block's step in the block's Cholesky frame, so
    it is free of the cancellation in psi itself. The trace term makes
    (P, Q, D) = (I, I, I), the start, the center as t -> 0, and keeps a
    center when a direction of zero residual lies inside the cones. At a
    center the objective is within (nu + tr P + tr Q + tr D) / t,
    nu = 2n + m, of the optimum (P*, Q*, D*) whenever tr P* + tr Q* + tr D*
    is at most twice tr P + tr Q + tr D. It stops once that bound is below
    rel_gap (1 + f), or when a centering fails: a line search that finds no
    step of at least 1e-12, or center_cap steps. Returns
    (P, Q, R, objective, gap bound at the last center, whether the bound
    met rel_gap).
    """
    n, m = A.shape[0], B.shape[1]
    k = max(n, m)
    L = _lifting(n, m, k)
    J = _residual_map(A, B, K, k) @ L
    JtJ = J.T @ J
    c = np.concatenate([(Y1 / rho).ravel(), (K + Y2 / rho).ravel()])
    corners = list(enumerate((n, n, m)))
    # tr P + tr Q + tr D = w @ v, and v = w is (I, I, I)
    w = L.T @ np.stack([np.eye(k)] * 3).ravel()

    def blocks(v):
        S = (L @ v).reshape(3, k, k)
        return [S[b, :size, :size] for b, size in corners]

    def newton(v, t):
        """The Newton step of psi at v and the eigenvalues mu of the step's
        blocks in the Cholesky frames of v's blocks."""
        g, H = np.zeros((3, k, k)), np.zeros((3 * k * k, 3 * k * k))
        chol = []
        for (b, size), X in zip(corners, blocks(v)):
            Xi = np.linalg.inv(X)
            g[b, :size, :size] = -Xi
            idx = ((b * k + np.arange(size))[:, None] * k
                   + np.arange(size)).ravel()
            H[np.ix_(idx, idx)] = np.kron(Xi, Xi)
            chol.append(np.linalg.inv(np.linalg.cholesky(X)))
        grad = 2.0 * t * (J.T @ (J @ v + c)) + w + L.T @ g.ravel()
        dv = -np.linalg.solve(2.0 * t * JtJ + L.T @ H @ L, grad)
        mu = np.concatenate([np.linalg.eigvalsh(Ci @ D @ Ci.T)
                             for Ci, D in zip(chol, blocks(dv))])
        return dv, -(grad @ dv), mu

    nu = 2 * n + m
    v, t = w.copy(), 1.0
    gap, done = np.inf, False
    while not done:
        centered = False
        for _ in range(center_cap):
            dv, lam2, mu = newton(v, t)
            centered = lam2 < 1e-6
            if centered:
                break
            Jd = J @ dv
            a1 = 2.0 * t * ((J @ v + c) @ Jd) + w @ dv
            a2 = t * (Jd @ Jd)
            s = 1.0
            while s > 1e-12 and not (
                    np.all(1.0 + s * mu > 0.0) and
                    a1 * s + a2 * s * s - np.sum(np.log1p(s * mu))
                    <= -0.25 * s * lam2 and _positive(blocks(v + s * dv))):
                s *= 0.5
            if s <= 1e-12:
                break
            v = v + s * dv
        if not centered:
            break
        r = J @ v + c
        gap = (nu + w @ v) / t
        done = gap < rel_gap * (1.0 + float(r @ r))
        t *= 20.0
    P, Q, D = blocks(v)
    r = J @ v + c
    return P, Q, D + np.eye(m), float(r @ r), gap, done


def random_controllable(rng, n_max=6, m_max=3, rho_scale=None):
    """A random controllable (A, B) pair, optionally rescaling rho(A)."""
    while True:
        n = int(rng.integers(2, n_max + 1))
        m = int(rng.integers(1, m_max + 1))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        if rho_scale is not None:
            r = np.abs(np.linalg.eigvals(A)).max()
            if r < 1e-12:
                continue
            A = A * (rho_scale / r)
        C = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
        if np.linalg.matrix_rank(C) == n:
            return A, B


def _face_basis(w, V, floor, act_tol):
    """The face of {X >= floor I} at eigenpairs (w, V): (v_i v_j' + v_j v_i')
    / (2 or sqrt 2), i <= j, over eigenvalues above floor by act_tol."""
    V = V[:, (w - floor) > act_tol * (1.0 + w.max(initial=0.0))].T
    i, j = np.triu_indices(len(V))
    divisor = np.where(i == j, 2.0, np.sqrt(2.0))[:, None, None]
    O = V[i, :, None] * V[j, None, :]
    return (O + O.swapaxes(1, 2)) / divisor


def _project_psd(S, floor=0.0):
    w, V = np.linalg.eigh(0.5 * (S + S.swapaxes(-1, -2)))
    M = V @ (np.maximum(w, floor)[..., None] * V.swapaxes(-1, -2))
    return 0.5 * (M + M.swapaxes(-1, -2))


def _svec_basis(k):
    """The symmetric k x k matrices whose orthonormal svec are the unit
    vectors, in triu order: 1 on a diagonal entry, 1/sqrt 2 on an
    off-diagonal pair."""
    i, j = np.triu_indices(k)
    E = np.zeros((len(i), k, k))
    e = np.where(i == j, 1.0, 1.0 / np.sqrt(2.0))
    E[np.arange(len(i)), i, j] = e
    E[np.arange(len(i)), j, i] = e
    return E


def polish_reference(op, T1, T2, best):
    """The face polish of one (P, Q, R) problem, one member at a time.

    ``op`` is the problem's KalmanOperator (its A, B, K and F are read),
    (T1, T2) its offsets and ``best`` an (objective, P, Q, R) tuple. The
    face is read off the eigenstructure of best's (P, Q, R) at the face
    tolerance 1e-5; the least squares correction within the face is
    accepted only if cone-feasible and lower. Returns the lower
    (objective, P, Q, R).
    """
    A, B, K, F = op.A, op.B, op.K, op.F

    def apply(P, Q, R):
        return Q + A.T @ P @ F - P, R @ K + B.T @ P @ F

    def objective(P, Q, R):
        M1, M2 = apply(P, Q, R)
        M1 = M1 + T1
        M2 = M2 + T2
        return float(np.sum(M1 * M1) + np.sum(M2 * M2))

    _, P, Q, R = best
    n, m = op.n, op.m
    c = np.concatenate([T1.ravel(), (K + T2).ravel()])
    EP, EQ, ER = (_face_basis(*np.linalg.eigh(_sym(M)), floor, 1e-5)
                  for M, floor in zip((P, Q, R), (0.0, 0.0, 1.0)))
    kp, kq = len(EP), len(EQ)
    k = kp + kq + len(ER)
    Ps, Qs = np.zeros((k, n, n)), np.zeros((k, n, n))
    Rs = np.zeros((k, m, m))
    Ps[:kp], Qs[kp:kp + kq], Rs[kp + kq:] = EP, EQ, ER
    M1, M2 = apply(Ps, Qs, Rs)
    Mt = np.concatenate([M1.reshape(k, n * n), M2.reshape(k, m * n)],
                        axis=1).T.copy()
    theta = np.array([np.sum(E * X) for Es, X in
                      ((EP, P), (EQ, Q), (ER, R - np.eye(m)))
                      for E in Es])
    dth, *_ = np.linalg.lstsq(Mt, -(Mt @ theta + c), rcond=None)
    theta = theta + dth
    parts = []
    for start, th, Es in ((np.zeros((n, n)), theta[:kp], EP),
                          (np.zeros((n, n)), theta[kp:kp + kq], EQ),
                          (np.eye(m), theta[kp + kq:], ER)):
        for t, E in zip(th, Es):
            start = start + t * E
        parts.append(start)
    Pn, Qn, Rn = parts
    if all(w.min() >= floor - 1e-9 * (1.0 + np.abs(w).max())
           for w, floor in ((np.linalg.eigvalsh(_sym(Pn)), 0.0),
                            (np.linalg.eigvalsh(_sym(Qn)), 0.0),
                            (np.linalg.eigvalsh(_sym(Rn)), 1.0))):
        Pn, Qn = _project_psd(np.stack([Pn, Qn]))
        Rn = _project_psd(Rn, 1.0)
        f = objective(Pn, Qn, Rn)
        return (f, Pn, Qn, Rn) if f < best[0] else best
    return best


def rollout_reference(dyn, cost, K, horizon, rng_seed, input_noise_cov=None):
    """``linsys.rollout_cost_estimate`` as a full-width computation: the
    disturbances and the input noise's share as separate arrays, x_0 and
    them joined with ``hstack``, and each step of the prefix scan one
    matrix product over the whole horizon.  The same draws in the same
    order, and the same floating-point operations on every entry."""
    from lqfit.linsys import _psd_factor, cost_pair, stationary_covariance

    Q, R = cost_pair(dyn, cost)
    K = np.asarray(K, dtype=float)
    F = dyn.closed_loop(K)
    rng = np.random.default_rng(rng_seed)
    Xstat = stationary_covariance(dyn, K, input_noise_cov)
    x0 = _psd_factor(Xstat) @ rng.standard_normal(dyn.n)
    Lw = _psd_factor(dyn.W)
    disturbances = (Lw @ rng.standard_normal((dyn.n, horizon - 1))
                    if horizon > 1 else np.zeros((dyn.n, 0)))
    Z = None
    if input_noise_cov is not None:
        Lz = _psd_factor(np.asarray(input_noise_cov, dtype=float))
        Z = Lz @ rng.standard_normal((dyn.m, horizon))
        if horizon > 1:
            disturbances = disturbances + dyn.B @ Z[:, :-1]
    X = np.hstack([x0[:, None], disturbances])
    Fk = F
    shift = 1
    while shift < X.shape[1]:
        X[:, shift:] += Fk @ X[:, :-shift]
        Fk = Fk @ Fk
        shift *= 2
    state_cost = np.einsum("it,ij,jt->", X, Q, X)
    U = K @ X
    if Z is not None:
        U = U + Z
    input_cost = np.einsum("it,ij,jt->", U, R, U)
    return float((state_cost + input_cost) / horizon)


def stein_reference(F, C, tol=1e-12, max_iter=200):
    """P = C + F'PF for one matrix C by squared Smith doubling, with the
    stop test written as two Frobenius norms: a step that moves P by at
    most tol * (1 + ||P||_F) is the last."""
    P = _sym(np.asarray(C, dtype=float))
    Fk = np.asarray(F, dtype=float).copy()
    for _ in range(max_iter):
        Pn = _sym(P + Fk.T @ P @ Fk)
        Fk = Fk @ Fk
        if (np.linalg.norm(Pn - P, "fro")
                <= tol * (1.0 + np.linalg.norm(Pn, "fro"))):
            return Pn
        P = Pn
    return P


def reduced_map_reference(F, B, K):
    """``riccati._reduced_map`` with one Stein solve per svec basis matrix
    of Q, each by :func:`stein_reference`, and the same assembly: the map
    and the stack of P of every basis matrix of (Q, R)."""
    from lqfit.conic_ls import _svec

    En, Em = _svec(*B.shape).basis
    PE = np.stack([stein_reference(F, E) for E in En])
    PR = np.tensordot(_svec(len(F)).join([K.T @ Em @ K]), PE, axes=1)
    cols = np.concatenate([B.T @ PE @ F, Em @ K + B.T @ PR @ F])
    return cols.reshape(len(cols), -1).T, np.concatenate([PE, PR])


def warm_step_reference(systems, K, Y1, Y2, rho, max_iter, init, dual0=None):
    """A warm ``solve_pqr_step`` call on a stack, written as the splitting
    loop and the face polish were before they moved to stacked arrays:
    (S, p) rows, the cone projections joined with ``concatenate``, the
    best point of each member an (objective, P, Q, R) tuple picked by
    comparing floats, and the polish accepting member by member.  Its
    svec layout (the flat gathers ``pos``, ``up`` and ``lo``, the scale
    and the basis) is its own frozen copy, read off no table of the
    library's layout.

    ``systems`` holds one LinearDynamics per member; K, Y1, Y2, the three
    matrices of ``init`` and ``dual0`` (or None) are stacks.  Returns one
    ((objective, P, Q, R), iterations, dual) per member.
    """
    from lqfit.conic_ls import KalmanOperator, project_psd

    def sym(M):
        return 0.5 * (M + M.swapaxes(-1, -2))

    def lower(a, b):
        return b if b[0] < a[0] else a

    def columns(op, EP, EQ, ER):
        n, m = op.n, op.m
        kp, kq = EP.shape[-3], EQ.shape[-3]
        k = kp + kq + ER.shape[-3]
        lead = EP.shape[:-3]
        Ps, Qs = np.zeros(lead + (k, n, n)), np.zeros(lead + (k, n, n))
        Rs = np.zeros(lead + (k, m, m))
        Ps[..., :kp, :, :] = EP
        Qs[..., kp:kp + kq, :, :] = EQ
        Rs[..., kp + kq:, :, :] = ER
        M1, M2 = op.take(np.s_[..., None, :, :]).apply(Ps, Qs, Rs)
        return np.concatenate([M.reshape(M.shape[:-2] + (-1,)).swapaxes(
            -1, -2) for M in (M1, M2)], axis=-2)

    def face_bases(w, V, floor):
        i, j = np.triu_indices(w.shape[-1])
        divisor = np.where(i == j, 2.0, np.sqrt(2.0))[:, None, None]
        Vt = V.swapaxes(-1, -2)
        O = Vt[..., i, :, None] * Vt[..., j, None, :]
        on = (w - floor) > 1e-5 * (1.0 + w.max(axis=-1, initial=0.0,
                                              keepdims=True))
        return (O + O.swapaxes(-1, -2)) / divisor, on[..., i] & on[..., j]

    def reaches(w, floor):
        return w.min(axis=-1) >= floor - 1e-9 * (1.0 + np.abs(w).max(axis=-1))

    def polish(op, T1, T2, best):
        best = list(best)
        n, m = op.n, op.m
        S = len(best)
        PQ = np.stack([b[1:3] for b in best])
        R = np.stack([b[3] for b in best])
        E_pq, on_pq = face_bases(*np.linalg.eigh(sym(PQ)), 0.0)
        E_r, on_r = face_bases(*np.linalg.eigh(sym(R)), 1.0)
        dn = E_pq.shape[2]
        cols = columns(op, E_pq[:, 0], E_pq[:, 1], E_r)
        theta = np.concatenate([
            np.sum(E_pq * PQ[:, :, None], axis=(-2, -1)).reshape(S, -1),
            np.sum(E_r * (R - np.eye(m))[:, None], axis=(-2, -1))], axis=1)
        c = np.concatenate([T1.reshape(S, -1), (op.K + T2).reshape(S, -1)],
                           axis=1)
        faces = np.concatenate([on_pq.reshape(S, 2 * dn), on_r], axis=1)
        for t, on, cols_i, c_i in zip(theta, faces, cols, c):
            Mt = cols_i[:, on].copy()
            dth, *_ = np.linalg.lstsq(Mt, -(Mt @ t[on] + c_i), rcond=None)
            t[on] += dth
            t[~on] = 0.0
        PQn = np.add.reduce(np.concatenate(
            [np.zeros((S, 2, 1, n, n)),
             theta[:, :2 * dn].reshape(S, 2, dn, 1, 1) * E_pq], axis=2),
            axis=2)
        Rn = np.add.reduce(np.concatenate(
            [np.broadcast_to(np.eye(m), (S, 1, m, m)),
             theta[:, 2 * dn:, None, None] * E_r], axis=1), axis=1)
        ok = (reaches(np.linalg.eigvalsh(sym(PQn)), 0.0).all(axis=-1)
              & reaches(np.linalg.eigvalsh(sym(Rn)), 1.0))
        if ok.any():
            done = np.flatnonzero(ok)
            PQn, Rn = project_psd(PQn[ok]), project_psd(Rn[ok], 1.0)
            f = op.take(done).objective(PQn[:, 0], PQn[:, 1], Rn, T1[done],
                                        T2[done])
            for i, fi, (Pn, Qn), Rn_i in zip(done, f.tolist(), PQn, Rn):
                best[i] = lower(best[i], (fi, Pn, Qn, Rn_i))
        return best

    K = np.asarray(K, dtype=float)
    T1 = np.asarray(Y1, dtype=float) / rho
    T2 = np.asarray(Y2, dtype=float) / rho
    P0, Q0, R0 = (np.asarray(M, dtype=float) for M in init)
    op = KalmanOperator(np.stack([d.A for d in systems]),
                        np.stack([d.B for d in systems]), K)
    n, m = op.n, op.m
    # the svec layout of (P, Q, R): the flat layout [P | Q | R] lists the
    # row-major entries, up and lo are the flat positions of the upper and
    # lower triangle entries of every coordinate, pos the coordinate of
    # every flat entry
    iu = [np.triu_indices(k) for k in (n, n, m)]
    flat = np.cumsum([0, n * n, n * n, m * m])
    scale = np.concatenate([np.where(i == j, 1.0, np.sqrt(2.0))
                            for i, j in iu])
    up = np.concatenate([f + i * k + j
                         for k, f, (i, j) in zip((n, n, m), flat, iu)])
    lo = np.concatenate([f + j * k + i
                         for k, f, (i, j) in zip((n, n, m), flat, iu)])
    pos = np.zeros(flat[-1], dtype=np.intp)
    pos[up] = pos[lo] = np.arange(len(up))
    n2 = flat[2]
    Mat = columns(op, _svec_basis(n), _svec_basis(n), _svec_basis(m))
    G = 2.0 * (Mat.swapaxes(-1, -2) @ Mat)
    alpha = 1.6
    S, p = len(T1), Mat.shape[-1]
    u = np.zeros((S, p)) if dual0 is None else np.array(dual0, dtype=float)
    PQ, R = np.stack([P0, Q0], axis=1), R0
    z = np.concatenate([M.reshape(S, -1) for M in (P0, Q0, R0)],
                       axis=1).take(up, axis=1) * scale
    c = np.concatenate([T1.reshape(S, -1), T2.reshape(S, -1)], axis=1)
    q = 2.0 * (Mat.swapaxes(-1, -2) @ c[:, :, None])[:, :, 0]
    sigma = np.maximum(np.trace(G, axis1=1, axis2=2) / p, 1e-12)
    Minv = np.linalg.inv(G + sigma[:, None, None] * np.eye(p))
    for _ in range(max_iter):
        x = (Minv @ (sigma[:, None] * (z - u) - q)[:, :, None])[:, :, 0]
        xr = alpha * x + (1.0 - alpha) * z
        v = xr + u
        Mv = np.take(v / scale, pos, axis=-1)
        w, V = np.linalg.eigh(Mv[:, :n2].reshape(-1, 2, n, n))
        PQ = V @ (np.maximum(w, 0.0)[..., None] * V.swapaxes(-1, -2))
        w, V = np.linalg.eigh(Mv[:, n2:].reshape(-1, m, m))
        R = V @ (np.maximum(w, 1.0)[..., None] * V.swapaxes(-1, -2))
        M = np.concatenate([PQ.reshape(S, -1), R.reshape(S, -1)], axis=1)
        z = 0.5 * (M.take(up, axis=1) + M.take(lo, axis=1)) * scale
        u += xr - z
    PQ, R = sym(PQ), sym(R)
    f0 = op.objective(P0, Q0, R0, T1, T2).tolist()
    f = op.objective(PQ[:, 0], PQ[:, 1], R, T1, T2).tolist()
    best = polish(op, T1, T2, [
        lower((f0[i], P0[i], Q0[i], R0[i]), (f[i], PQ[i, 0], PQ[i, 1], R[i]))
        for i in range(S)])
    return [(b, max_iter, ui) for b, ui in zip(best, u)]


def two_step_reference(dyn, demos, loss, reg):
    """The two-step inverse-LQR gain (fit, then the cost that best
    explains the fit), from public functions only: the plain policy fit
    K_pf, a cold (P, Q, R) step at K_pf with zero offsets (the
    least-residual cone point there), and the LQR gain of the Q and R that
    step returns."""
    from lqfit import policy_fit, solve_lqr, solve_pqr_step

    K_pf = policy_fit(demos, loss, reg).K
    step = solve_pqr_step(dyn, K_pf, np.zeros((dyn.n, dyn.n)),
                          np.zeros(K_pf.shape), 1.0)
    return solve_lqr(dyn, (step.Q, step.R)).K
