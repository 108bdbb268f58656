"""Output checks computed apart from lqfit.

Every reference here comes from scipy (DARE, discrete Lyapunov) or from a
property the method must have, never from lqfit itself.  Each check returns
a list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

# Relative agreement demanded of lqfit's exact computations.
GAIN_RTOL = 1e-6
COST_RTOL = 1e-6
# The expert's cost is a one-trajectory Monte-Carlo estimate: it must land
# within this many of its own standard errors, and never needs to be closer
# than ROLLOUT_FLOOR (relative).
ROLLOUT_SIGMAS = 4.0
ROLLOUT_FLOOR = 0.02
# Slack on comparisons that must hold exactly in exact arithmetic.
ROUNDOFF = 1e-9


def dare_gain(A, B, Q, R):
    """Optimal gain K = -(R + B'PB)^{-1} B'PA and P from scipy's DARE."""
    P = sla.solve_discrete_are(A, B, Q, R)
    K = -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    return K, P


def average_cost(A, B, W, Q, R, K):
    """trace(W P_cl), P_cl = Q + K'RK + F'P_cl F, F = A + BK; inf if unstable."""
    F = A + B @ K
    if np.abs(np.linalg.eigvals(F)).max() >= 1.0:
        return math.inf
    return float(np.sum(W * sla.solve_discrete_lyapunov(F.T, Q + K.T @ R @ K)))


def rollout_spread(A, B, W, Q, R, K, sigma, horizon):
    """Average cost of the noisy expert and the relative standard error of
    its ``horizon``-step Monte-Carlo estimate.

    The noisy expert u = Kx + z drives y = (x, z) as y' = G y + e with
    G = [[F, B], [0, 0]] and cov(e) = diag(W, sigma); the stage cost is
    y'My.  For a stationary Gaussian y, cov(c_t, c_t+k) = 2 tr(M G^k Y M Y
    G^k'), whose sum over k >= 0 is 2 tr(M Z) with Z = G Z G' + Y M Y.
    """
    n, m = B.shape
    G = np.zeros((n + m, n + m))
    G[:n, :n] = A + B @ K
    G[:n, n:] = B
    E = sla.block_diag(W, sigma)
    M = np.block([[Q + K.T @ R @ K, K.T @ R], [R @ K, R]])
    Y = sla.solve_discrete_lyapunov(G, E)
    Z = sla.solve_discrete_lyapunov(G, Y @ M @ Y)
    mean = float(np.sum(M * Y))
    gamma0 = 2.0 * float(np.trace(M @ Y @ M @ Y))
    var = (4.0 * float(np.trace(M @ Z)) - gamma0) / horizon
    return mean, math.sqrt(max(var, 0.0)) / mean


def stacked_residual(A, B, K, P, Q, R):
    """||[Q + A'PF - P ; RK + B'PF]||_F with F = A + BK."""
    F = A + B @ K
    M1 = Q + A.T @ P @ F - P
    M2 = R @ K + B.T @ P @ F
    return float(math.sqrt(np.sum(M1 * M1) + np.sum(M2 * M2)))


def _rel_gap(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check_expert_gain(K_lqfit, K_ref, label):
    err = np.linalg.norm(K_lqfit - K_ref) / (1.0 + np.linalg.norm(K_ref))
    if not err <= GAIN_RTOL:
        return [f"{label}: expert gain differs from scipy's DARE gain "
                f"(relative error {err:.3e})"]
    return []


def check_optimal_cost(reported, reference, label):
    if not _rel_gap(reported, reference) <= COST_RTOL:
        return [f"{label}: optimal cost {reported!r} != trace(W P) "
                f"{reference!r} from scipy's Lyapunov solver"]
    return []


def check_expert_rollout(reported, reference, rel_spread, label):
    tol = max(ROLLOUT_FLOOR, ROLLOUT_SIGMAS * rel_spread)
    if not _rel_gap(reported, reference) <= tol:
        return [f"{label}: expert Monte-Carlo cost {reported!r} is not within "
                f"{tol:.1%} of its Lyapunov value {reference!r}"]
    return []


def check_not_below_optimal(method, cost, optimal, label):
    if math.isfinite(cost) and cost < optimal * (1.0 - ROUNDOFF):
        return [f"{label}: {method} cost {cost!r} lies below the optimal "
                f"cost {optimal!r}"]
    return []


def check_same_bytes(first, again, label):
    if first != again:
        return [f"{label}: sweep CSV differs from the first run's"]
    return []


def check_feasible_answer(A, B, K, result, label):
    """A "feasible" answer must carry a cone certificate with residual <= tol."""
    cert = result.certificate
    errors = []
    for name, M, floor in (("P", cert.P, 0.0), ("Q", cert.Q, 0.0),
                           ("R", cert.R, 1.0)):
        lo = float(np.linalg.eigvalsh(0.5 * (M + M.T)).min())
        if lo < floor - 1e-8 * (1.0 + np.linalg.norm(M)):
            errors.append(f"{label}: certificate {name} has eigenvalue {lo:.3e} "
                          f"below {floor}")
    resid = stacked_residual(A, B, K, cert.P, cert.Q, cert.R)
    if not resid <= result.tol:
        errors.append(f"{label}: recomputed certificate residual {resid:.3e} "
                      f"exceeds tol {result.tol:.3e}")
    return errors


def check_zero_dynamics_answer(A, B, K, result, label):
    """A = 0, K != 0: the second block is (R + B'PB) K with R + B'PB >= I,
    so every cone point leaves residual >= ||K||_F and K is infeasible.

    A certificate lies in the cone only up to roundoff at its own scale,
    which B'PB carries into R + B'PB; the floor allows for that.
    """
    if np.any(A != 0.0) or not np.any(K != 0.0):
        raise ValueError(f"{label}: needs A = 0 and K != 0")
    cert = result.certificate
    scale = (np.linalg.norm(cert.R, 2)
             + np.linalg.norm(B, 2) ** 2 * np.linalg.norm(cert.P, 2))
    slack = ROUNDOFF + 16.0 * np.finfo(float).eps * scale
    floor = np.linalg.norm(K) * (1.0 - slack)
    errors = []
    if result.feasible:
        errors.append(f"{label}: A = 0, K != 0 reported feasible")
    if not cert.residual >= floor:
        errors.append(f"{label}: reported residual {cert.residual:.3e} "
                      f"< ||K||_F {floor:.3e}")
    resid = stacked_residual(A, B, K, cert.P, cert.Q, cert.R)
    if not resid >= floor:
        errors.append(f"{label}: recomputed residual {resid:.3e} < ||K||_F")
    return errors


def unstable_mode_gain(A, B, K):
    """|K v| for the closed-loop eigenvector v with the largest |lambda| > 1.

    Zero when no eigenvalue leaves the unit disc.  A certificate would give
    (1 - |lambda|^2) v*Pv = v*(Q + K'RK)v >= |Kv|^2 with R >= I, which is
    impossible for |lambda| > 1 and Kv != 0.
    """
    lam, V = np.linalg.eig(A + B @ K)
    i = int(np.argmax(np.abs(lam)))
    if abs(lam[i]) <= 1.0:
        return 0.0
    v = V[:, i] / np.linalg.norm(V[:, i])
    return float(np.linalg.norm(K @ v))


def check_unstable_answer(A, B, K, result, label):
    if not unstable_mode_gain(A, B, K) > 1e-6:
        raise ValueError(f"{label}: needs an unstable mode v with Kv != 0")
    if result.feasible:
        return [f"{label}: gain with an unstable closed-loop mode reported "
                f"feasible"]
    return []


def certified_cost_ratio(A, B, W, K, cert):
    """How far the certificate's trace(W P) is from K's cost under its (Q, R).

    An exact certificate prices K exactly and gives 1; a loose one gives
    more, whichever way it errs.
    """
    cost = average_cost(A, B, W, cert.Q, cert.R, K)
    claimed = float(np.sum(W * cert.P))
    return max(cost / claimed, claimed / cost)
