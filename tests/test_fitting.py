import re

import numpy as np
import pytest

from lqfit.conic_ls import LossSpec, RegularizerSpec, SingularFitError
from lqfit.fitting import fit_objective, policy_fit
from lqfit.linsys import DemoSet


def _demos_from_gain(K0, N, seed, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, K0.shape[1]))
    U = X @ K0.T + noise * rng.standard_normal((N, K0.shape[0]))
    return DemoSet(states=X, inputs=U)


def test_scalar_ridge_example():
    demos = DemoSet(states=[[1.0]], inputs=[[2.0]])
    report = policy_fit(demos, reg=RegularizerSpec("ridge", 0.01))
    assert report.K[0, 0] == pytest.approx(2.0 / 1.01, abs=1e-12)
    assert report.objective == pytest.approx(
        (report.K[0, 0] - 2.0) ** 2 + 0.01 * report.K[0, 0] ** 2, abs=1e-12)


def test_noiseless_recovery():
    rng = np.random.default_rng(0)
    K0 = rng.standard_normal((2, 4))
    demos = _demos_from_gain(K0, 4, seed=1)
    report = policy_fit(demos, reg=RegularizerSpec("ridge", 1e-8))
    assert np.linalg.norm(report.K - K0) <= 1e-6


def test_objective_recomputable():
    rng = np.random.default_rng(2)
    demos = DemoSet(states=rng.standard_normal((6, 3)),
                    inputs=rng.standard_normal((6, 2)))
    for loss in (LossSpec("quadratic"), LossSpec("huber", huber_m=0.3)):
        report = policy_fit(demos, loss=loss)
        assert report.objective == pytest.approx(
            fit_objective(demos, report.K, loss, report.reg), abs=1e-10)


@pytest.mark.parametrize("shape", [(2, 2), (2,), (2, 1), (1, 2, 1)])
def test_fit_objective_rejects_a_gain_of_the_wrong_shape(shape):
    # an (N, 2) residual would broadcast against the (N, 1) inputs
    demos = _demos_from_gain(np.ones((1, 2)), 5, seed=5)
    with pytest.raises(ValueError, match=re.escape(
            f"gain must be 1x2, got shape {shape}")):
        fit_objective(demos, np.zeros(shape), LossSpec(), RegularizerSpec())


def test_permutation_bit_identical():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((9, 4))
    U = rng.standard_normal((9, 2))
    perm = rng.permutation(9)
    # the Huber path too; the objectives are summed in one order
    for loss in (LossSpec("quadratic"), LossSpec("huber", huber_m=0.5)):
        fit1 = policy_fit(DemoSet(X, U), loss=loss)
        fit2 = policy_fit(DemoSet(X[perm], U[perm]), loss=loss)
        assert np.array_equal(fit1.K, fit2.K)
        assert fit1.objective == fit2.objective


def test_doubled_demos_doubled_weight_same_gain():
    # duplicating every pair doubles the loss term, so doubling the ridge
    # weight scales the whole objective by two and keeps the minimizer
    rng = np.random.default_rng(4)
    X = rng.standard_normal((7, 3))
    U = rng.standard_normal((7, 2))
    single = policy_fit(DemoSet(X, U), reg=RegularizerSpec("ridge", 0.02))
    doubled = policy_fit(DemoSet(np.vstack([X, X]), np.vstack([U, U])),
                         reg=RegularizerSpec("ridge", 0.04))
    assert np.linalg.norm(single.K - doubled.K) <= 1e-9


def test_rank_deficient_no_reg_minimum_norm():
    # one demo in 2-d: infinitely many interpolators; pick the min-norm one
    demos = DemoSet(states=[[1.0, 0.0]], inputs=[[3.0]])
    report = policy_fit(demos, reg=RegularizerSpec("ridge", 0.0))
    assert np.allclose(report.K, [[3.0, 0.0]], atol=1e-12)
    assert report.objective <= 1e-20


def test_rank_deficient_huber_no_reg_raises():
    demos = DemoSet(states=[[1.0, 0.0]], inputs=[[3.0]])
    with pytest.raises(SingularFitError):
        policy_fit(demos, loss=LossSpec("huber", huber_m=0.5),
                   reg=RegularizerSpec("ridge", 0.0))


def test_few_demos_often_destabilize():
    # qualitative: with N < n the interpolating fit often fails to stabilize
    from lqfit.bench import build_small_random
    from lqfit.linsys import generate_demos, spectral_radius
    from lqfit.riccati import solve_lqr

    unstable = 0
    total = 0
    for seed in range(8):
        dyn, cost, sigma = build_small_random(seed)
        K = solve_lqr(dyn, cost).K
        demos = generate_demos(dyn, K, sigma, 2, 0.0, 100 + seed)
        report = policy_fit(demos)
        total += 1
        if spectral_radius(dyn.closed_loop(report.K)) >= 1.0:
            unstable += 1
    assert unstable >= 1  # statistically near-certain across 8 seeds
