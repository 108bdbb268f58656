"""Independent reference implementations used only by the tests.

Kept deliberately separate from the library code paths: the projected
gradient solver here shares no code with the operator-splitting solver it
cross-checks. It assembles the constraint map from its matrix formula and
projects with its own eigendecompositions.
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
