"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The heavy fixtures (the 20-seed small-random grid) are shared
between criteria.
"""

import math
import time

import numpy as np
import pytest

from lqfit.bench import (ExperimentConfig, build_aircraft, build_small_random,
                         run_experiment)
from lqfit.conic_ls import LossSpec, RegularizerSpec, solve_pqr_step
from lqfit.fitting import policy_fit
from lqfit.kalman_fit import AdmmConfig, fit_kalman, fit_kalman_batch
from lqfit.linsys import (LinearDynamics, closed_loop_cost, generate_demos,
                          rollout_cost_estimate, spectral_radius)
from lqfit.riccati import are_residual, check_kalman_feasible, solve_lqr

from _oracles import pqr_barrier, random_controllable

QUAD = LossSpec("quadratic")
RIDGE = RegularizerSpec("ridge", 0.01)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status}" + (f" ({detail})" if detail else ""))
    return ok


def _zero_w(A, B):
    return LinearDynamics(A=A, B=B, W=np.zeros((A.shape[0], A.shape[0])))


def test_criterion_01_are_correctness():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_resid = 0.0
    worst_rho = 0.0
    for _ in range(50):
        A, B = random_controllable(rng, n_max=6, m_max=3)
        n, m = A.shape[0], B.shape[1]
        dyn = _zero_w(A, B)
        sol = solve_lqr(dyn, (np.eye(n), np.eye(m)))
        resid = are_residual(dyn, (np.eye(n), np.eye(m)), sol.P)
        worst_resid = max(worst_resid,
                          resid / (1.0 + np.linalg.norm(sol.P, "fro")))
        worst_rho = max(worst_rho, spectral_radius(A + B @ sol.K))
    elapsed = time.perf_counter() - t0
    ok = worst_resid <= 1e-8 and worst_rho < 1.0 and elapsed < 5.0
    assert _report(1, "ARE correctness on 50 random systems", ok,
                   f"worst rel residual {worst_resid:.2e}, worst rho "
                   f"{worst_rho:.6f}, {elapsed:.2f}s")


def test_criterion_02_scalar_golden():
    dyn = LinearDynamics(A=[[1.0]], B=[[1.0]], W=[[0.0]])
    sol = solve_lqr(dyn, (np.array([[1.0]]), np.array([[1.0]])))
    p_err = abs(sol.P[0, 0] - (1.0 + math.sqrt(5.0)) / 2.0)
    k_err = abs(sol.K[0, 0] + (math.sqrt(5.0) - 1.0) / 2.0)
    ok = p_err <= 1e-9 and k_err <= 1e-9
    assert _report(2, "scalar golden ARE", ok,
                   f"P err {p_err:.1e}, K err {k_err:.1e}")


def test_criterion_03_cost_evaluator_cross_check():
    t0 = time.perf_counter()
    results = []
    scalar = LinearDynamics(A=[[0.5]], B=[[1.0]], W=[[1.0]])
    cost1 = (np.array([[1.0]]), np.array([[1.0]]))
    J = closed_loop_cost(scalar, cost1, np.array([[0.0]]))
    est = rollout_cost_estimate(scalar, cost1, np.array([[0.0]]),
                                horizon=10**6, rng_seed=12345)
    results.append(abs(est - J) / J)
    dyn, cost, _ = build_aircraft()
    K = solve_lqr(dyn, cost).K
    J = closed_loop_cost(dyn, cost, K)
    est = rollout_cost_estimate(dyn, cost, K, horizon=10**6, rng_seed=777)
    results.append(abs(est - J) / J)
    elapsed = time.perf_counter() - t0
    ok = max(results) <= 0.05 and elapsed < 30.0
    assert _report(3, "Lyapunov vs Monte-Carlo cost (scalar, 747)", ok,
                   f"rel errors {results[0]:.3f}, {results[1]:.3f}, "
                   f"{elapsed:.1f}s")


def test_criterion_04_kalman_check_soundness():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    fails = 0
    worst = 0.0
    for _ in range(50):
        A, B = random_controllable(rng, n_max=6, m_max=3)
        n, m = A.shape[0], B.shape[1]
        dyn = _zero_w(A, B)
        K = solve_lqr(dyn, (np.eye(n), np.eye(m))).K
        res = check_kalman_feasible(dyn, K)
        resid = res.certificate.residual
        worst = max(worst, resid)
        if not res.feasible or resid > 1e-6 * (1 + np.linalg.norm(K)):
            fails += 1
    scalar = _zero_w(np.array([[0.0]]), np.array([[1.0]]))
    infeas = check_kalman_feasible(scalar, np.array([[1.0]]), tol=1e-6)
    elapsed = time.perf_counter() - t0
    ok = (fails == 0 and not infeas.feasible
          and infeas.certificate.residual >= 0.5 and elapsed < 60.0)
    assert _report(4, "Kalman feasibility soundness", ok,
                   f"{fails} misses, worst residual {worst:.1e}, infeasible "
                   f"residual {infeas.certificate.residual:.3f}, {elapsed:.1f}s")


def test_criterion_05_noiseless_recovery():
    t0 = time.perf_counter()
    dyn, cost, _ = build_small_random(12)
    Kstar = solve_lqr(dyn, cost).K
    demos = generate_demos(dyn, Kstar, np.zeros((2, 2)), 4, 0.0, 50)
    # noiseless exact recovery needs no regularization
    pf = policy_fit(demos, QUAD, RegularizerSpec("ridge", 0.0))
    pf_err = np.linalg.norm(pf.K - Kstar)
    demos50 = generate_demos(dyn, Kstar, np.zeros((2, 2)), 50, 0.0, 51)
    report = fit_kalman(demos50, QUAD, RIDGE, dyn, AdmmConfig())
    k_err = np.linalg.norm(report.K - Kstar)
    resid = report.certificate.residual
    elapsed = time.perf_counter() - t0
    ok = pf_err <= 1e-6 and k_err <= 1e-2 and resid <= 1e-3 and elapsed < 120.0
    assert _report(5, "noiseless recovery (plain and constrained)", ok,
                   f"pf err {pf_err:.1e}, admm err {k_err:.1e}, residual "
                   f"{resid:.1e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def small_random_grid():
    """20 seeds x N in {1,2,3,5,10}: both fitters on identical demos; the
    constrained fits run as one lockstep batch, as in an experiment sweep,
    each bit for bit what ``fit_kalman`` gives for its cell alone."""
    cells, problems = [], []
    for seed in range(20):
        dyn, cost, sigma = build_small_random(seed)
        Kstar = solve_lqr(dyn, cost).K
        for N in (1, 2, 3, 5, 10):
            demos = generate_demos(dyn, Kstar, sigma, N, 0.0,
                                   np.random.SeedSequence((seed, N, 1)))
            cells.append((seed, N, dyn, cost, policy_fit(demos, QUAD, RIDGE)))
            problems.append((demos, dyn))
    reports = fit_kalman_batch(problems, QUAD, RIDGE, AdmmConfig())
    return [(*cell, report) for cell, report in zip(cells, reports)]


def test_criterion_06_stability_claim(small_random_grid):
    t0 = time.perf_counter()
    cert_stable = 0
    total = 0
    pf_finite = {}
    for seed, N, dyn, cost, pf, report in small_random_grid:
        total += 1
        if report.K_certified is not None and \
                spectral_radius(dyn.closed_loop(report.K_certified)) < 1.0:
            cert_stable += 1
        pf_finite.setdefault(N, []).append(
            spectral_radius(dyn.closed_loop(pf.K)) < 1.0 - 1e-9)
    frac_pf = {N: sum(v) / len(v) for N, v in pf_finite.items()}
    pf_sometimes_unstable = any(frac_pf[N] < 1.0 for N in (1, 2, 3))
    elapsed = time.perf_counter() - t0
    ok = cert_stable == total and pf_sometimes_unstable
    assert _report(6, "certified gains always stabilize; plain fitting not",
                   ok, f"certified {cert_stable}/{total}, pf finite fractions "
                   f"{ {N: round(f, 2) for N, f in sorted(frac_pf.items())} }, "
                   f"+{elapsed:.1f}s")


def test_criterion_07_relaxation_ordering(small_random_grid):
    violations = 0
    for seed, N, dyn, cost, pf, report in small_random_grid:
        if pf.objective > report.objective + 1e-8:
            violations += 1
    ok = violations == 0
    assert _report(7, "plain-fit objective lower-bounds constrained fit", ok,
                   f"{violations} violations over {len(small_random_grid)} cells")


def test_criterion_08_huber_robustness():
    t0 = time.perf_counter()
    huber = LossSpec("huber", huber_m=0.5)
    kalman_costs = []
    pf_costs = []
    cells = []
    for seed in range(10):
        dyn, cost, sigma = build_small_random(seed)
        Kstar = solve_lqr(dyn, cost).K
        demos = generate_demos(dyn, Kstar, sigma, 20, 0.1,
                               np.random.SeedSequence((seed, 20, 8)))
        pf = policy_fit(demos, QUAD, RIDGE)
        J_pf = closed_loop_cost(dyn, cost, pf.K)
        if J_pf < math.inf:
            pf_costs.append(J_pf)
        cells.append((demos, dyn, cost))
    reports = fit_kalman_batch([(demos, dyn) for demos, dyn, _ in cells],
                               huber, RIDGE, AdmmConfig())
    for (_, dyn, cost), report in zip(cells, reports):
        if isinstance(report, RuntimeError):
            raise report
        K_eval = report.K_certified if report.K_certified is not None else report.K
        J_k = closed_loop_cost(dyn, cost, K_eval)
        if J_k < math.inf:
            kalman_costs.append(J_k)
    mean_k = sum(kalman_costs) / len(kalman_costs)
    mean_pf = sum(pf_costs) / len(pf_costs)
    elapsed = time.perf_counter() - t0
    ok = mean_k <= mean_pf and elapsed < 600.0
    assert _report(8, "Huber constrained fit beats quadratic plain fit "
                   "under outliers", ok,
                   f"mean {mean_k:.2f} vs {mean_pf:.2f} "
                   f"({len(kalman_costs)}/{len(pf_costs)} finite), {elapsed:.0f}s")


def test_criterion_09_pqr_step_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    worst = 0.0
    skipped = 0
    instances = 35
    for _ in range(instances):
        A, B = random_controllable(rng, n_max=4, m_max=2, rho_scale=0.6)
        n, m = A.shape[0], B.shape[1]
        dyn = _zero_w(A, B)
        K = solve_lqr(dyn, (np.eye(n), np.eye(m))).K
        K = K + 0.1 * rng.standard_normal(K.shape)
        Y1 = 0.2 * rng.standard_normal((n, n))
        Y2 = 0.2 * rng.standard_normal((m, n))
        *_, f_ref, _, reached = pqr_barrier(A, B, K, Y1, Y2, rho=1.0)
        if not reached:
            # the oracle did not reach its own gap bound: no valid
            # reference value for this instance
            skipped += 1
            continue
        step = solve_pqr_step(dyn, K, Y1, Y2, rho=1.0)
        worst = max(worst, abs(step.objective - f_ref))
    elapsed = time.perf_counter() - t0
    ok = skipped == 0 and worst <= 1e-4 and elapsed < 120.0
    assert _report(9, "(P,Q,R) step matches barrier oracle", ok,
                   f"worst objective gap {worst:.2e} over "
                   f"{instances - skipped} of {instances} instances "
                   f"({skipped} oracle stalls), {elapsed:.0f}s")


def test_criterion_10_experiment_determinism(tmp_path):
    cfg = ExperimentConfig(
        experiment="small_random", N_values=(1, 3), seeds=(0, 1),
        admm=AdmmConfig(n_iter=20),
        expert_eval_horizon=20_000)
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    run_experiment(cfg, out1)
    run_experiment(cfg, out2)
    ok = out1.read_bytes() == out2.read_bytes()
    assert _report(10, "experiment re-runs are byte-identical", ok,
                   f"{len(out1.read_bytes())} bytes compared")
