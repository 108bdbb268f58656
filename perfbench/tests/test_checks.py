"""Each output check accepts a right answer and rejects a deliberately wrong one."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

import checks
from lqfit import (ResultRow, build_aircraft, build_small_random,
                   rollout_cost_estimate)
from workloads import CheckBatch, GainCase, Sweep

DYN, COST, SIGMA = build_small_random(0)
A, B, W, Q, R = DYN.A, DYN.B, DYN.W, COST.Q, COST.R
K_OPT, P_OPT = checks.dare_gain(A, B, Q, R)


def answer(feasible, P, Q_, R_, residual=0.0, tol=1e-6):
    cert = SimpleNamespace(P=P, Q=Q_, R=R_, residual=residual)
    return SimpleNamespace(feasible=feasible, certificate=cert, tol=tol,
                           iterations=0)


def test_expert_gain_against_scipy():
    assert checks.check_expert_gain(K_OPT.copy(), K_OPT, "x") == []
    assert checks.check_expert_gain(K_OPT * 1.001, K_OPT, "x")


def test_optimal_cost_against_lyapunov():
    ref = checks.average_cost(A, B, W, Q, R, K_OPT)
    assert ref == pytest.approx(float(np.sum(W * P_OPT)), rel=1e-9)
    assert checks.check_optimal_cost(ref * (1 + 1e-9), ref, "x") == []
    assert checks.check_optimal_cost(ref * 1.001, ref, "x")


def test_expert_rollout_needs_the_input_noise():
    ref, spread = checks.rollout_spread(A, B, W, Q, R, K_OPT, SIGMA, 100_000)
    # state covariance under W + B Sigma B', priced by Q + K'RK, plus tr(R Sigma)
    F = A + B @ K_OPT
    X = sla.solve_discrete_lyapunov(F, W + B @ SIGMA @ B.T)
    assert ref == pytest.approx(float(np.sum((Q + K_OPT.T @ R @ K_OPT) * X)
                                      + np.trace(R @ SIGMA)))
    mc = rollout_cost_estimate(DYN, COST, K_OPT, 100_000, 5, SIGMA)
    assert checks.check_expert_rollout(mc, ref, spread, "x") == []
    no_sigma = rollout_cost_estimate(DYN, COST, K_OPT, 100_000, 5)
    assert checks.check_expert_rollout(no_sigma, ref, spread, "x")


def test_rollout_spread_matches_repeated_rollouts():
    dyn, cost, sigma = build_aircraft()
    K, _ = checks.dare_gain(dyn.A, dyn.B, cost.Q, cost.R)
    ref, spread = checks.rollout_spread(dyn.A, dyn.B, dyn.W, cost.Q, cost.R,
                                        K, sigma, 20_000)
    runs = [rollout_cost_estimate(dyn, cost, K, 20_000, s, sigma) / ref - 1
            for s in range(40)]
    assert np.std(runs) == pytest.approx(spread, rel=0.35)


def test_no_cost_below_optimal():
    assert checks.check_not_below_optimal("pf", math.inf, 2.0, "x") == []
    assert checks.check_not_below_optimal("kalman", 2.0, 2.0, "x") == []
    assert checks.check_not_below_optimal("kalman", 1.99, 2.0, "x")


def test_csv_bytes():
    assert checks.check_same_bytes(b"a,1\n", b"a,1\n", "x") == []
    assert checks.check_same_bytes(b"a,1\n", b"a,1.0\n", "x")


def test_feasible_answer_needs_a_cone_certificate_within_tol():
    assert checks.check_feasible_answer(A, B, K_OPT,
                                        answer(True, P_OPT, Q, R), "x") == []
    loose = answer(True, P_OPT * 1.01, Q, R)
    assert checks.check_feasible_answer(A, B, K_OPT, loose, "x")
    # R scaled below I leaves the cone even where the equations still hold
    off_cone = answer(True, 0.5 * P_OPT, 0.5 * Q, 0.5 * R)
    errors = checks.check_feasible_answer(A, B, K_OPT, off_cone, "x")
    assert any("certificate R" in e for e in errors)


def test_zero_dynamics_gain_must_be_infeasible_with_residual_at_least_norm_k():
    A0 = np.zeros_like(A)
    K = np.ones((2, 4))
    zero = np.zeros((4, 4))
    resid = checks.stacked_residual(A0, B, K, zero, zero, R)
    assert resid >= np.linalg.norm(K)
    right = answer(False, zero, zero, R, residual=resid)
    assert checks.check_zero_dynamics_answer(A0, B, K, right, "x") == []
    assert checks.check_zero_dynamics_answer(
        A0, B, K, answer(True, zero, zero, R, residual=resid), "x")
    assert checks.check_zero_dynamics_answer(
        A0, B, K, answer(False, zero, zero, R, residual=0.5), "x")
    with pytest.raises(ValueError):
        checks.check_zero_dynamics_answer(A, B, K, right, "x")


def test_zero_dynamics_floor_allows_roundoff_of_a_huge_certificate():
    # P = Q of norm 1e12 in the cone only to roundoff: R + B'PB dips below I
    # by about 1e-4, as a 20k-iteration run on an infeasible gain returned
    A0 = np.zeros_like(A)
    a = B[:, 0] / np.linalg.norm(B[:, 0])
    k = np.array([-(B.T @ a)[1], (B.T @ a)[0]])   # B'(a a')B k = 0
    K = np.outer(k, np.ones(4))
    b = B @ k - (a @ B @ k) * a
    b /= np.linalg.norm(b)
    P = 1e12 * np.outer(a, a) - 1e-4 * np.outer(b, b)
    resid = checks.stacked_residual(A0, B, K, P, P, R)
    assert resid < np.linalg.norm(K) * (1 - 1e-6)
    near = answer(False, P, P, R, residual=resid)
    assert checks.check_zero_dynamics_answer(A0, B, K, near, "x") == []


def test_unstable_gain_must_be_infeasible():
    K = np.array([[5.0, 0.0, 0.0, 0.0], [0.0, 5.0, 0.0, 0.0]])
    assert checks.unstable_mode_gain(A, B, K) > 1e-6
    zero = np.zeros((4, 4))
    assert checks.check_unstable_answer(A, B, K, answer(False, zero, zero, R),
                                        "x") == []
    assert checks.check_unstable_answer(A, B, K, answer(True, zero, zero, R), "x")
    with pytest.raises(ValueError):
        checks.check_unstable_answer(A, B, K_OPT, answer(False, zero, zero, R), "x")


def test_certified_cost_ratio_is_one_for_an_exact_certificate():
    cert = SimpleNamespace(P=P_OPT, Q=Q, R=R)
    assert checks.certified_cost_ratio(A, B, W, K_OPT, cert) == pytest.approx(1.0)
    loose = SimpleNamespace(P=0.9 * P_OPT, Q=Q, R=R)
    assert checks.certified_cost_ratio(A, B, W, K_OPT, loose) > 1.1


def test_check_batch_counts_a_wrong_infeasible_as_failed():
    zero = np.zeros((4, 4))
    cases = [GainCase("unit", DYN, K_OPT)]
    out = CheckBatch().check_round(cases, 0, [answer(False, zero, zero, R)])
    assert (out.attempted, out.failed, out.errors) == (1, 1, [])
    out = CheckBatch().check_round(cases, 0, [answer(True, P_OPT, Q, R)])
    assert (out.attempted, out.failed, out.errors) == (1, 0, [])
    assert out.ratios == [pytest.approx(1.0)]


def test_sweep_round_rejects_wrong_rows(tmp_path):
    sweep = Sweep("small_random", seeds=(0,), N_values=(1,))
    inputs = sweep.build(0, tmp_path)
    ref = checks.average_cost(A, B, W, Q, R, K_OPT)
    expert, _ = checks.rollout_spread(A, B, W, Q, R, K_OPT, SIGMA, 100_000)
    radius = float(np.abs(np.linalg.eigvals(A + B @ K_OPT)).max())

    def rows(optimal, kalman):
        return [ResultRow("small_random", 1, 0, "pf", math.inf, False, 2.0),
                ResultRow("small_random", 1, 0, "kalman", kalman,
                          math.isfinite(kalman), 0.5),
                ResultRow("small_random", 1, 0, "expert", expert, True, radius),
                ResultRow("small_random", 1, 0, "optimal", optimal, True, radius)]

    for k, text in enumerate((b"same\n", b"same\n", b"other\n")):
        sweep.csv_path(inputs, k).write_bytes(text)
    good = sweep.check_round(inputs, 1, rows(ref, 1.5 * ref))
    assert good.errors == [] and (good.attempted, good.failed) == (1, 0)
    assert good.ratios == [pytest.approx(1.5)]
    assert sweep.check_round(inputs, 2, rows(ref, 1.5 * ref)).errors
    assert sweep.check_round(inputs, 1, rows(1.01 * ref, 1.5 * ref)).errors
    assert sweep.check_round(inputs, 1, rows(ref, 0.9 * ref)).errors
    failed = sweep.check_round(inputs, 1, rows(ref, math.inf))
    assert failed.errors == [] and failed.failed == 1
    assert failed.ratios == [math.inf]
