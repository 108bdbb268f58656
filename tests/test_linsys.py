import json
import math
import tracemalloc

import numpy as np
import pytest

from lqfit import linsys
from lqfit.bench import build_aircraft, build_small_random
from lqfit.linsys import (CostMatrices, DemoSet, LinearDynamics,
                          _simulate_closed_loop, closed_loop_cost,
                          generate_demos, rollout_cost_estimate,
                          solve_lyapunov_stein, spectral_radius,
                          stationary_covariance)
from lqfit.riccati import are_residual, solve_lqr

from _oracles import rollout_reference, stein_reference


@pytest.fixture
def scalar_sys():
    return LinearDynamics(A=[[0.5]], B=[[1.0]], W=[[1.0]])


@pytest.fixture
def scalar_cost():
    return CostMatrices(Q=[[1.0]], R=[[1.0]])


class TestTypes:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearDynamics(A=np.eye(2), B=np.ones((3, 1)), W=np.eye(2))
        with pytest.raises(ValueError):
            LinearDynamics(A=np.eye(2), B=np.ones((2, 1)), W=np.eye(3))

    def test_indefinite_w_rejected(self):
        with pytest.raises(ValueError):
            LinearDynamics(A=np.eye(2), B=np.ones((2, 1)),
                           W=np.diag([1.0, -0.5]))

    def test_asymmetric_w_rejected(self):
        W = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            LinearDynamics(A=np.eye(2), B=np.ones((2, 1)), W=W)

    def test_cost_requires_r_geq_identity(self):
        with pytest.raises(ValueError):
            CostMatrices(Q=np.eye(2), R=0.5 * np.eye(2))
        CostMatrices(Q=np.zeros((2, 2)), R=np.eye(2))  # boundary is fine

    @pytest.mark.parametrize("field, M, message", [
        ("R", [[0.0]], "R must be positive definite"),
        ("R", [[-1.0]], "R must be positive"),
        ("Q", [[1.0, 5.0], [0.0, -3.0]], "Q must be symmetric"),
        ("Q", [[1.0, 0.0], [0.0, -3.0]], "Q must be positive semidefinite"),
        ("Sigma", [[-1e-3]], "Sigma must be positive semidefinite"),
    ])
    def test_system_file_weights_checked(self, tmp_path, field, M, message):
        path = tmp_path / "system.json"
        system = {"A": [[1.0, 0.2], [0.0, 0.9]], "B": [[0.0], [1.0]]}
        path.write_text(json.dumps(dict(system, **{field: M})))
        with pytest.raises(ValueError, match=message):
            linsys.load_system(path)
        # R > 0 is enough: R >= I is the fitter's normalization, not lqr's
        path.write_text(json.dumps(dict(system, R=[[0.5]], Sigma=[[0.0]],
                                        Q=[[0.0, 0.0], [0.0, 0.0]])))
        assert linsys.load_system(path)[2][0, 0] == 0.5

    def test_null_weights_take_their_defaults(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({
            "A": [[1.0, 0.2], [0.0, 0.9]], "B": [[0.0], [1.0]], "W": None,
            "Q": None, "R": None, "Sigma": None}))
        dyn, Q, R, sigma = linsys.load_system(path)
        assert np.array_equal(dyn.W, np.zeros((2, 2)))
        assert np.array_equal(Q, np.eye(2))
        assert np.array_equal(R, np.eye(1))
        assert np.array_equal(sigma, np.eye(1))

    def test_demoset_lengths(self):
        with pytest.raises(ValueError):
            DemoSet(states=np.zeros((3, 2)), inputs=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            DemoSet(states=np.zeros((0, 2)), inputs=np.zeros((0, 1)))

    @pytest.mark.parametrize("A, B, message", [
        (np.zeros((0, 0)), np.zeros((0, 1)),
         r"^A must have at least one column, got shape \(0, 0\)$"),
        (np.eye(2), np.zeros((2, 0)),
         r"^B must have at least one column, got shape \(2, 0\)$"),
    ])
    def test_system_without_states_or_inputs_rejected(self, A, B, message):
        with pytest.raises(ValueError, match=message):
            LinearDynamics(A=A, B=B, W=np.zeros(A.shape))

    @pytest.mark.parametrize("states, inputs, name", [
        (np.zeros((3, 0)), np.zeros((3, 1)), "states"),
        (np.zeros((3, 2)), np.zeros((3, 0)), "inputs"),
    ])
    def test_demoset_without_columns_rejected(self, states, inputs, name):
        with pytest.raises(ValueError, match=(
                rf"^{name} must have at least one column, got shape "
                rf"\(3, 0\)$")):
            DemoSet(states=states, inputs=inputs)

    def test_demoset_roundtrip(self):
        demos = DemoSet(states=[[1.0, 2.0]], inputs=[[3.0]])
        again = DemoSet.from_dict(demos.to_dict())
        assert np.array_equal(again.states, demos.states)
        assert np.array_equal(again.inputs, demos.inputs)

    def test_dynamics_roundtrip(self):
        dyn = LinearDynamics(A=np.eye(2), B=np.ones((2, 1)), W=0.5 * np.eye(2))
        again = LinearDynamics.from_dict(dyn.to_dict())
        assert np.array_equal(again.A, dyn.A)
        assert np.array_equal(again.B, dyn.B)
        assert np.array_equal(again.W, dyn.W)


class TestSpectralRadius:
    def test_nilpotent(self):
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0

    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_scalar(self):
        assert spectral_radius(np.array([[0.5]])) == pytest.approx(0.5)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))


class TestClosedLoopCost:
    def test_scalar_geometric(self, scalar_sys, scalar_cost):
        J = closed_loop_cost(scalar_sys, scalar_cost, np.array([[0.0]]))
        assert J == pytest.approx(4.0 / 3.0, rel=1e-10)

    def test_scalar_deadbeat(self, scalar_sys, scalar_cost):
        J = closed_loop_cost(scalar_sys, scalar_cost, np.array([[-0.5]]))
        assert J == pytest.approx(1.25, rel=1e-12)

    def test_marginally_unstable_is_inf(self, scalar_cost):
        dyn = LinearDynamics(A=[[1.0]], B=[[1.0]], W=[[1.0]])
        assert closed_loop_cost(dyn, scalar_cost, np.array([[0.0]])) == math.inf

    def test_permutation_similarity_invariance(self):
        rng = np.random.default_rng(4)
        n, m = 4, 2
        A = rng.standard_normal((n, n)) * 0.4
        B = rng.standard_normal((n, m))
        W = np.diag(rng.uniform(0.5, 2.0, n))
        Q = np.diag(rng.uniform(0.5, 2.0, n))
        K = rng.standard_normal((m, n)) * 0.1
        perm = np.array([2, 0, 3, 1])
        Pm = np.eye(n)[perm]
        J1 = closed_loop_cost(LinearDynamics(A, B, W), (Q, np.eye(m)), K)
        J2 = closed_loop_cost(
            LinearDynamics(Pm @ A @ Pm.T, Pm @ B, Pm @ W @ Pm.T),
            (Pm @ Q @ Pm.T, np.eye(m)), K @ Pm.T)
        assert J1 == pytest.approx(J2, rel=1e-10)

    def test_lyapunov_solution_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            F = rng.standard_normal((n, n))
            F *= rng.uniform(0.1, 0.95) / max(spectral_radius(F), 1e-12)
            C = rng.standard_normal((n, n))
            C = C @ C.T
            P = solve_lyapunov_stein(F, C)
            assert np.allclose(P, P.T)
            w = np.linalg.eigvalsh(P)
            assert w.min() >= -1e-8 * (1.0 + np.linalg.norm(P))
            # residual of the fixed point
            assert np.linalg.norm(P - C - F.T @ P @ F) <= 1e-9 * (1 + np.linalg.norm(P))


def _stein_case(n, radius, seed):
    """F of spectral radius ``radius`` and symmetric right-hand sides
    scaled from 1e-6 to 1e6, which stop the doubling at different steps."""
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((n, n))
    F *= radius / spectral_radius(F)
    C = rng.standard_normal((6, n, n))
    C = (C + C.swapaxes(1, 2)) * np.logspace(-6, 6, 6)[:, None, None]
    return F, C


@pytest.mark.parametrize("radius", [0.1, 0.5, 0.9, 0.999])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_stein_stack_equals_one_call_per_matrix(n, radius):
    F, C = _stein_case(n, radius, seed=n)
    each = np.array([solve_lyapunov_stein(F, Ci) for Ci in C])
    assert np.array_equal(each, [stein_reference(F, Ci) for Ci in C])
    for idx in ([2], [0, 3, 5]):
        assert np.array_equal(solve_lyapunov_stein(F, C[idx]), each[idx])
    grid = solve_lyapunov_stein(F, C.reshape(2, 3, n, n))
    assert grid.shape == (2, 3, n, n)
    assert np.array_equal(grid, each.reshape(2, 3, n, n))


def test_stein_two_dimensional_call_returns_a_matrix():
    F, C = _stein_case(4, 0.999, seed=0)
    P = solve_lyapunov_stein(F, C[0])
    assert P.shape == (4, 4)
    assert np.linalg.norm(P - C[0] - F.T @ P @ F) <= 1e-9 * np.linalg.norm(P)


def _symmetric_stacks(rng):
    """Random symmetric stacks of sizes 1 to 6, then the zero-padded
    (S, 3, k, k) layout of the warm step: blocks of sizes (n, n, m) in the
    bottom-right corners of k x k slots."""
    for k in range(1, 7):
        X = rng.standard_normal((5, k, k)) * 10.0 ** rng.integers(-3, 4)
        yield X + X.swapaxes(-1, -2)
    for n, m in ((1, 1), (2, 1), (1, 3), (4, 2), (3, 4), (6, 3)):
        k = max(n, m)
        padded = np.zeros((4, 3, k, k))
        for b, s in enumerate((n, n, m)):
            X = rng.standard_normal((4, s, s))
            padded[:, b, k - s:, k - s:] = X + X.swapaxes(-1, -2)
        yield padded


def _square_stacks(rng):
    """Random square stacks of sizes 1 to 6: C-ordered, transposed, and
    as corner views of a larger stack, like the blocks the barrier's
    Newton steps read."""
    for k in range(1, 7):
        X = (rng.standard_normal((3, k + 1, k + 1))
             * 10.0 ** rng.integers(-3, 4))
        yield X[:, :k, :k].copy()
        yield X[:, :k, :k].swapaxes(-1, -2)
        yield X[:, 1:, 1:]


def test_lapack_gufuncs_equal_np_linalg_bit_for_bit():
    rng = np.random.default_rng(29)
    lapack = linsys._LAPACK
    for S in _symmetric_stacks(rng):
        w, V = np.linalg.eigh(S)
        with linsys._lapack_errors():
            w_raw, V_raw = lapack.eigh_lo(S, signature="d->dd")
            v_raw = lapack.eigvalsh_lo(S, signature="d->d")
        assert np.array_equal(w_raw, w) and np.array_equal(V_raw, V)
        assert np.array_equal(v_raw, np.linalg.eigvalsh(S))
    for S in _square_stacks(rng):
        b = rng.standard_normal(S.shape[-1])
        with linsys._lapack_errors():
            inv = lapack.inv(S, signature="d->d")
            svd = lapack.svd_f(S, signature="d->ddd")
            x = [lapack.solve1(M, b, signature="dd->d") for M in S]
        assert np.array_equal(inv, np.linalg.inv(S))
        assert all(np.array_equal(raw, public)
                   for raw, public in zip(svd, np.linalg.svd(S)))
        assert np.array_equal(x, [np.linalg.solve(M, b) for M in S])


def test_lapack_errors_raise_as_np_linalg_and_restore_the_state():
    nan, zero = np.full((2, 3, 3), np.nan), np.zeros((2, 3, 3))
    lapack = linsys._LAPACK
    cases = [(lapack.eigh_lo, (nan,), "d->dd", np.linalg.eigh),
             (lapack.eigvalsh_lo, (nan,), "d->d", np.linalg.eigvalsh),
             (lapack.svd_f, (nan,), "d->ddd", np.linalg.svd),
             (lapack.inv, (zero,), "d->d", np.linalg.inv),
             (lapack.solve1, (zero[0], np.ones(3)), "dd->d", np.linalg.solve)]
    before = np.geterr(), np.geterrcall()
    for call, args, sig, public_call in cases:
        with pytest.raises(np.linalg.LinAlgError) as public:
            public_call(*args)
        with pytest.raises(np.linalg.LinAlgError) as raw:
            with linsys._lapack_errors():
                call(*args, signature=sig)
        assert str(raw.value) == str(public.value), call.__name__
        assert (np.geterr(), np.geterrcall()) == before
    # an invalid operation outside LAPACK raises too, with numpy's message
    with pytest.raises(np.linalg.LinAlgError,
                       match="^invalid value encountered in subtract$"):
        with linsys._lapack_errors():
            np.full(2, np.inf) - np.inf
    assert (np.geterr(), np.geterrcall()) == before


@pytest.mark.parametrize("scale", [0.0, 1e-300, 1e-160, 1.0, 1e150, 1e200])
def test_row_norms_equal_np_linalg_norm_bit_for_bit(scale):
    rng = np.random.default_rng(3)
    for k in (1, 7, 16, 33):
        V = rng.standard_normal((2, 5, k)) * scale
        W = rng.standard_normal((3, k + 1)) * scale
        with np.errstate(over="ignore"):
            expect = [[np.linalg.norm(v) for v in rows] for rows in V]
            assert np.array_equal(linsys._row_norms(V), expect)
            # rows read out of a wider array
            assert np.array_equal(linsys._row_norms(W[:, 1:]),
                                  [np.linalg.norm(w[1:]) for w in W])


class TestRollout:
    def test_matches_lyapunov_scalar(self, scalar_sys, scalar_cost):
        J = closed_loop_cost(scalar_sys, scalar_cost, np.array([[0.0]]))
        est = rollout_cost_estimate(scalar_sys, scalar_cost, np.array([[0.0]]),
                                    horizon=10**6, rng_seed=0)
        assert abs(est - J) / J <= 0.02

    def test_matches_lyapunov_deadbeat(self, scalar_sys, scalar_cost):
        J = closed_loop_cost(scalar_sys, scalar_cost, np.array([[-0.5]]))
        est = rollout_cost_estimate(scalar_sys, scalar_cost,
                                    np.array([[-0.5]]),
                                    horizon=10**6, rng_seed=1)
        assert abs(est - J) / J <= 0.02

    def test_matches_lyapunov_multivariate(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 3))
        A *= 0.7 / spectral_radius(A)
        B = rng.standard_normal((3, 2))
        dyn = LinearDynamics(A, B, 0.3 * np.eye(3))
        cost = (np.eye(3), np.eye(2))
        K = rng.standard_normal((2, 3)) * 0.05
        J = closed_loop_cost(dyn, cost, K)
        est = rollout_cost_estimate(dyn, cost, K, horizon=10**6, rng_seed=3)
        assert abs(est - J) / J <= 0.05

    def test_zero_noise_zero_cost(self, scalar_cost):
        dyn = LinearDynamics(A=[[0.5]], B=[[1.0]], W=[[0.0]])
        est = rollout_cost_estimate(dyn, scalar_cost, np.array([[0.0]]),
                                    horizon=1000, rng_seed=0)
        assert est == 0.0

    def test_unstable_gain_refused(self, scalar_cost):
        dyn = LinearDynamics(A=[[1.0]], B=[[1.0]], W=[[1.0]])
        with pytest.raises(ValueError):
            rollout_cost_estimate(dyn, scalar_cost, np.array([[0.0]]),
                                  horizon=100, rng_seed=0)

    def test_nondiagonalizable_fallback(self, scalar_cost):
        # Jordan block: F has no eigenvector basis
        dyn = LinearDynamics(A=[[0.5, 1.0], [0.0, 0.5]], B=[[0.0], [1.0]],
                             W=0.2 * np.eye(2))
        cost = (np.eye(2), np.eye(1))
        K = np.zeros((1, 2))
        J = closed_loop_cost(dyn, cost, K)
        est = rollout_cost_estimate(dyn, cost, K, horizon=200_000, rng_seed=5)
        assert abs(est - J) / J <= 0.05


_BLOCK = linsys._SCAN_BLOCK


@pytest.mark.parametrize("noisy", [False, True], ids=["plain", "input-noise"])
@pytest.mark.parametrize("T", [1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                               2 * _BLOCK + 1, 100_000])
def test_rollout_equals_full_width_reference(T, noisy):
    # the in-place, blockwise rollout against the full-width one, on the
    # 747 expert as the experiments run it
    dyn, cost, sigma = build_aircraft()
    K = solve_lqr(dyn, cost).K
    noise = sigma if noisy else None
    assert (rollout_cost_estimate(dyn, cost, K, T, 11, noise)
            == rollout_reference(dyn, cost, K, T, 11, noise))


def test_rollout_peak_allocation():
    # one (n, T) state array plus one draw of normals at a time: at most
    # 2.1 times the trajectory (the full-width rollout reaches 3.5)
    dyn, cost, sigma = build_aircraft()
    K = solve_lqr(dyn, cost).K
    T = 100_000
    tracemalloc.start()
    try:
        rollout_cost_estimate(dyn, cost, K, T, 0, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 8 * dyn.n * T


def _random_stable(n, seed):
    F = np.random.default_rng(seed).standard_normal((n, n))
    return F * (0.95 / spectral_radius(F))


def _aircraft_expert_loop():
    dyn, cost, _ = build_aircraft()
    return dyn.closed_loop(solve_lqr(dyn, cost).K)


@pytest.mark.parametrize("T", [1, 2, 3, 1000, 2**10 + 1])
@pytest.mark.parametrize("F", [
    _random_stable(4, 0),
    0.95 * np.eye(3) + np.eye(3, k=1),  # defective: one Jordan block
    _aircraft_expert_loop(),
], ids=["random", "jordan", "aircraft-expert"])
def test_simulation_matches_recursion(F, T):
    rng = np.random.default_rng(T)
    x0 = rng.standard_normal(F.shape[0])
    D = rng.standard_normal((F.shape[0], T - 1))
    ref = np.empty((F.shape[0], T))
    ref[:, 0] = x0
    for t in range(T - 1):
        ref[:, t + 1] = F @ ref[:, t] + D[:, t]
    X = _simulate_closed_loop(F, np.column_stack([x0, D]))
    assert X.shape == ref.shape
    assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max()


class TestGenerateDemos:
    @pytest.fixture
    def stable_sys(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((3, 3)) * 0.3
        B = rng.standard_normal((3, 2))
        return LinearDynamics(A, B, 0.5 * np.eye(3))

    def test_noiseless_expert_is_exact(self, stable_sys):
        K = np.zeros((2, 3))
        demos = generate_demos(stable_sys, K, np.zeros((2, 2)), 20, 0.0, 42)
        assert np.allclose(demos.inputs, demos.states @ K.T)
        K = np.full((2, 3), 0.05)
        demos = generate_demos(stable_sys, K, np.zeros((2, 2)), 20, 0.0, 42)
        assert np.allclose(demos.inputs, demos.states @ K.T, atol=1e-14)

    def test_certain_flip_negates(self, stable_sys):
        K = np.full((2, 3), 0.05)
        clean = generate_demos(stable_sys, K, np.eye(2), 15, 0.0, 9)
        flipped = generate_demos(stable_sys, K, np.eye(2), 15, 1.0, 9)
        assert np.array_equal(flipped.inputs, -clean.inputs)
        assert np.array_equal(flipped.states, clean.states)

    def test_flip_count_binomial(self, stable_sys):
        K = np.full((2, 3), 0.05)
        clean = generate_demos(stable_sys, K, 4.0 * np.eye(2), 100, 0.0, 33)
        noisy = generate_demos(stable_sys, K, 4.0 * np.eye(2), 100, 0.1, 33)
        flips = np.sum(noisy.inputs != clean.inputs)
        # Binomial(200, 0.1): mean 20, sigma ~4.24; allow 3 sigma
        assert 20 - 3 * math.sqrt(18) <= flips <= 20 + 3 * math.sqrt(18)

    def test_bit_reproducible(self, stable_sys):
        K = np.full((2, 3), 0.05)
        a = generate_demos(stable_sys, K, np.eye(2), 10, 0.3, 123)
        b = generate_demos(stable_sys, K, np.eye(2), 10, 0.3, 123)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.inputs, b.inputs)

    def test_states_from_stationary_distribution(self, stable_sys):
        K = np.zeros((2, 3))
        X = stationary_covariance(stable_sys, K)
        demos = generate_demos(stable_sys, K, np.zeros((2, 2)), 4000, 0.0, 5)
        emp = demos.states.T @ demos.states / len(demos)
        assert np.linalg.norm(emp - X) / np.linalg.norm(X) < 0.15

    def test_unstable_expert_rejected(self):
        dyn = LinearDynamics(A=[[1.5]], B=[[1.0]], W=[[1.0]])
        with pytest.raises(ValueError):
            generate_demos(dyn, np.zeros((1, 1)), np.eye(1), 5, 0.0, 0)


_COST_CALLS = {
    "solve_lqr": lambda dyn, cost, sol: solve_lqr(dyn, cost),
    "are_residual": lambda dyn, cost, sol: are_residual(dyn, cost, sol.P),
    "closed_loop_cost": lambda dyn, cost, sol: closed_loop_cost(dyn, cost,
                                                                sol.K),
    "rollout_cost_estimate": lambda dyn, cost, sol: rollout_cost_estimate(
        dyn, cost, sol.K, horizon=100, rng_seed=0),
}


@pytest.mark.parametrize("call", list(_COST_CALLS))
@pytest.mark.parametrize("wrong", ["Q", "R"])
def test_wrong_sized_cost_rejected(call, wrong):
    # a 1 x 1 Q would broadcast as the all-ones 4 x 4 matrix
    dyn, cost, _ = build_small_random(0)
    sol = solve_lqr(dyn, cost)
    Q, R = cost.Q, cost.R
    pair = (np.eye(1), R) if wrong == "Q" else (Q, np.eye(1))
    with pytest.raises(ValueError, match="cost matrix dimensions do not "
                                         "match the system"):
        _COST_CALLS[call](dyn, pair, sol)
    # the right sizes, as arrays or as CostMatrices, are accepted
    _COST_CALLS[call](dyn, (Q, R), sol)
    _COST_CALLS[call](dyn, cost, sol)


_NOISE_CALLS = {
    "stationary_covariance": lambda dyn, cost, K, Sigma:
        stationary_covariance(dyn, K, Sigma),
    "rollout_cost_estimate": lambda dyn, cost, K, Sigma:
        rollout_cost_estimate(dyn, cost, K, horizon=100, rng_seed=0,
                              input_noise_cov=Sigma),
    "generate_demos": lambda dyn, cost, K, Sigma:
        generate_demos(dyn, K, Sigma, 3, 0.0, 0),
}


@pytest.mark.parametrize("call", list(_NOISE_CALLS))
def test_wrong_input_noise_cov_rejected(call):
    # m = 2: a 1 x 1 or 3 x 3 Sigma died in matmul, an indefinite one
    # passed stationary_covariance and rollout_cost_estimate unchecked
    dyn, cost, sigma = build_small_random(0)
    K = solve_lqr(dyn, cost).K
    for Sigma, message in (
            (np.eye(1), r"input_noise_cov must be 2x2 .*shape \(1, 1\)"),
            (np.eye(3), r"input_noise_cov must be 2x2 .*shape \(3, 3\)"),
            (-np.eye(2), "input_noise_cov must be positive semidefinite")):
        with pytest.raises(ValueError, match=message):
            _NOISE_CALLS[call](dyn, cost, K, Sigma)
    _NOISE_CALLS[call](dyn, cost, K, sigma)


def test_are_residual_requires_n_by_n_p():
    dyn, cost, _ = build_small_random(0)
    with pytest.raises(ValueError, match=r"P must be 4x4, got shape \(1, 1\)"):
        are_residual(dyn, cost, np.eye(1))
    assert are_residual(dyn, cost, solve_lqr(dyn, cost).P) < 1e-8


@pytest.mark.parametrize("bad", [2.5, True, 0, -1, "3"])
def test_counts_must_be_integers(scalar_sys, scalar_cost, bad):
    with pytest.raises(ValueError, match="n_demos must be an integer"):
        generate_demos(scalar_sys, np.zeros((1, 1)), np.eye(1), bad, 0.0, 0)
    with pytest.raises(ValueError, match="horizon must be an integer"):
        rollout_cost_estimate(scalar_sys, scalar_cost, np.zeros((1, 1)),
                              horizon=bad, rng_seed=0)


def test_integer_counts_of_any_integer_type(scalar_sys, scalar_cost):
    K = np.zeros((1, 1))
    for count in (7, np.int64(7)):
        assert np.array_equal(
            generate_demos(scalar_sys, K, np.eye(1), count, 0.0, 3).states,
            generate_demos(scalar_sys, K, np.eye(1), 7, 0.0, 3).states)
        assert (rollout_cost_estimate(scalar_sys, scalar_cost, K,
                                      horizon=count, rng_seed=3)
                == rollout_cost_estimate(scalar_sys, scalar_cost, K,
                                         horizon=7, rng_seed=3))
