import logging
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_discrete_are, solve_discrete_lyapunov

from lqfit import conic_ls, linsys, riccati
from lqfit.bench import build_aircraft, build_small_random
from lqfit.conic_ls import (KalmanOperator, LossSpec, RegularizerSpec,
                            solve_pqr_step)
from lqfit.linsys import (LinearDynamics, generate_demos, solve_lyapunov_stein,
                          spectral_radius)
from lqfit.riccati import (ConvergenceError, FarkasWitness, KalmanCertificate,
                           UnstableModeWitness, _frobenius, _reduced_map,
                           _unstable_mode_witness,
                           are_residual, check_kalman_feasible,
                           kalman_residual, solve_lqr)

from _oracles import (random_controllable, reduced_map_reference,
                      two_step_reference)


def _dyn(A, B):
    return LinearDynamics(A=A, B=B, W=np.zeros((A.shape[0], A.shape[0])))


class TestSolveLqr:
    def test_scalar_golden_section(self):
        dyn = _dyn(np.array([[1.0]]), np.array([[1.0]]))
        sol = solve_lqr(dyn, (np.array([[1.0]]), np.array([[1.0]])))
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        assert sol.P[0, 0] == pytest.approx(golden, abs=1e-9)
        assert sol.K[0, 0] == pytest.approx(-(math.sqrt(5.0) - 1.0) / 2.0,
                                            abs=1e-9)

    def test_zero_dynamics_gives_p_equals_q(self):
        rng = np.random.default_rng(0)
        for n, m in ((2, 1), (3, 3), (4, 2)):
            B = rng.standard_normal((n, m))
            dyn = _dyn(np.zeros((n, n)), B)
            sol = solve_lqr(dyn, (np.eye(n), np.eye(m)))
            assert np.allclose(sol.P, np.eye(n), atol=1e-10)
            assert np.allclose(sol.K, 0.0, atol=1e-10)

    def test_matches_scipy_dare(self):
        from scipy.linalg import solve_discrete_are

        rng = np.random.default_rng(42)
        for _ in range(25):
            A, B = random_controllable(rng)
            n, m = A.shape[0], B.shape[1]
            dyn = _dyn(A, B)
            sol = solve_lqr(dyn, (np.eye(n), np.eye(m)))
            P_ref = solve_discrete_are(A, B, np.eye(n), np.eye(m))
            assert np.linalg.norm(sol.P - P_ref) <= 1e-7 * (1 + np.linalg.norm(P_ref))

    def test_solution_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            A, B = random_controllable(rng)
            n, m = A.shape[0], B.shape[1]
            dyn = _dyn(A, B)
            Q, R = np.eye(n), np.eye(m)
            sol = solve_lqr(dyn, (Q, R))
            assert are_residual(dyn, (Q, R), sol.P) <= 1e-8 * (1 + np.linalg.norm(sol.P))
            K_expected = -np.linalg.solve(R + B.T @ sol.P @ B, B.T @ sol.P @ A)
            assert np.allclose(sol.K, K_expected, atol=1e-8)
            assert spectral_radius(A + B @ sol.K) < 1.0
            w = np.linalg.eigvalsh(sol.P)
            assert w.min() >= -1e-8 * (1 + np.linalg.norm(sol.P))

    def test_gain_scale_invariant(self):
        rng = np.random.default_rng(3)
        A, B = random_controllable(rng, n_max=4, m_max=2)
        dyn = _dyn(A, B)
        K_ref = solve_lqr(dyn, (np.eye(A.shape[0]), np.eye(B.shape[1]))).K
        for alpha in (0.5, 2.0, 10.0):
            K = solve_lqr(dyn, (alpha * np.eye(A.shape[0]),
                                alpha * np.eye(B.shape[1]))).K
            assert np.allclose(K, K_ref, atol=1e-8)

    def test_gain_independent_of_w(self):
        rng = np.random.default_rng(5)
        A, B = random_controllable(rng, n_max=4, m_max=2)
        n, m = A.shape[0], B.shape[1]
        dyn1 = LinearDynamics(A=A, B=B, W=np.zeros((n, n)))
        dyn2 = LinearDynamics(A=A, B=B, W=np.eye(n))
        sol1 = solve_lqr(dyn1, (np.eye(n), np.eye(m)))
        sol2 = solve_lqr(dyn2, (np.eye(n), np.eye(m)))
        assert np.array_equal(sol1.K, sol2.K)
        assert np.array_equal(sol1.P, sol2.P)

    def test_badly_scaled_747_equation_refined_by_newton(self, caplog):
        # the weights a constrained fit recovers on the 747 at seed 0, N = 1
        # (rank-one Q), rounded: doubling stops at Riccati residual 4.4,
        # and the Newton steps must bring it within tolerance
        dyn, _, _ = build_aircraft()
        q = np.array([0.0087, -0.149, -0.0145, 1.141])
        Q, R = np.outer(q, q), np.array([[80.2, 23.6], [23.6, 52.9]])
        with caplog.at_level(logging.INFO, logger="lqfit"):
            sol = solve_lqr(dyn, (Q, R))
        assert (are_residual(dyn, (Q, R), sol.P)
                <= 1e-8 * (1 + np.linalg.norm(sol.P)))
        assert spectral_radius(dyn.closed_loop(sol.K)) < 1.0
        P_ref = solve_discrete_are(dyn.A, dyn.B, Q, R)
        BtP = dyn.B.T @ P_ref
        K_ref = -np.linalg.solve(R + BtP @ dyn.B, BtP @ dyn.A)
        assert np.linalg.norm(sol.K - K_ref) <= 1e-6 * np.linalg.norm(K_ref)
        assert "Riccati Newton refinement" in caplog.text

    def test_uncontrollable_system_raises(self):
        dyn = _dyn(np.array([[1.0]]), np.array([[0.0]]))
        with pytest.raises(ConvergenceError):
            solve_lqr(dyn, (np.array([[1.0]]), np.array([[1.0]])))


class TestKalmanResidual:
    def test_zero_solution(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 2))
        dyn = _dyn(A, B)
        cert = KalmanCertificate(P=np.zeros((3, 3)), Q=np.zeros((3, 3)),
                                 R=np.eye(2), residual=0.0)
        assert kalman_residual(dyn, np.zeros((2, 3)), cert) == 0.0

    def test_lqr_solution_satisfies_constraints(self):
        rng = np.random.default_rng(2)
        A, B = random_controllable(rng, n_max=4, m_max=2)
        n, m = A.shape[0], B.shape[1]
        dyn = _dyn(A, B)
        sol = solve_lqr(dyn, (np.eye(n), np.eye(m)))
        cert = KalmanCertificate(P=sol.P, Q=np.eye(n), R=np.eye(m),
                                 residual=0.0)
        assert kalman_residual(dyn, sol.K, cert) <= 1e-8

    def test_scalar_lower_bound(self):
        dyn = _dyn(np.array([[0.0]]), np.array([[1.0]]))
        K = np.array([[1.0]])
        for P, R in ((0.0, 1.0), (0.5, 1.0), (2.0, 3.0)):
            M1, M2 = KalmanOperator(dyn.A, dyn.B, K).apply(
                np.array([[P]]), np.array([[0.0]]), np.array([[R]]))
            assert abs(M2[0, 0]) == pytest.approx(R + P)
            resid = math.hypot(M1[0, 0], M2[0, 0])
            assert resid >= R + P >= 1.0

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(min_value=0.0, max_value=50.0))
    def test_absolutely_homogeneous(self, alpha):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 1))
        dyn = _dyn(A, B)
        K = rng.standard_normal((1, 3))
        P = rng.standard_normal((3, 3))
        P = P @ P.T
        Q = rng.standard_normal((3, 3))
        Q = Q @ Q.T
        R = np.array([[2.0]])

        def resid(p, q, r):
            M1, M2 = KalmanOperator(dyn.A, dyn.B, K).apply(p, q, r)
            return math.sqrt(np.sum(M1 * M1) + np.sum(M2 * M2))

        assert resid(alpha * P, alpha * Q, alpha * R) == pytest.approx(
            alpha * resid(P, Q, R), rel=1e-9, abs=1e-12)

    def test_certificate_validates_cones(self):
        with pytest.raises(ValueError):
            KalmanCertificate(P=-np.eye(2), Q=np.zeros((2, 2)), R=np.eye(1),
                              residual=0.0)
        with pytest.raises(ValueError):
            KalmanCertificate(P=np.eye(2), Q=np.zeros((2, 2)),
                              R=0.5 * np.eye(1), residual=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("block", ["P", "Q", "R"])
    def test_certificate_rejects_non_finite_matrices(self, block, value):
        # NaN and inf would pass the cone tests: the smallest eigenvalue
        # is NaN, or the slack scaled by the norm is infinite
        blocks = {"P": np.eye(2), "Q": np.zeros((2, 2)), "R": np.eye(1)}
        blocks[block] = blocks[block].copy()
        blocks[block].flat[0] = value
        with pytest.raises(ValueError,
                           match=f"^certificate {block} must be finite$"):
            KalmanCertificate(**blocks, residual=0.0)

    def test_certificate_allows_an_infinite_residual(self):
        # finite matrices whose residual overflows
        op = KalmanOperator(np.eye(2), np.ones((2, 1)),
                            np.array([[1e200, 0.0]]))
        with np.errstate(over="ignore"):
            cert = KalmanCertificate.at(op, np.eye(2), np.zeros((2, 2)),
                                        np.eye(1))
        assert cert.residual == math.inf


class TestFeasibility:
    def test_zero_gain_always_feasible(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            A = rng.standard_normal((3, 3))
            B = rng.standard_normal((3, 2))
            res = check_kalman_feasible(_dyn(A, B), np.zeros((2, 3)))
            assert res.feasible
            assert res.certificate.residual <= 1e-8

    def test_optimal_gains_feasible(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            A, B = random_controllable(rng)
            n, m = A.shape[0], B.shape[1]
            dyn = _dyn(A, B)
            K = solve_lqr(dyn, (np.eye(n), np.eye(m))).K
            res = check_kalman_feasible(dyn, K)
            assert res.feasible
            assert res.certificate.residual <= 1e-6 * (1 + np.linalg.norm(K))

    def test_scalar_infeasible(self):
        dyn = _dyn(np.array([[0.0]]), np.array([[1.0]]))
        res = check_kalman_feasible(dyn, np.array([[1.0]]), tol=1e-6)
        assert not res.feasible
        assert res.verdict == "infeasible"
        # residual is bounded below by 1 for this gain
        assert res.certificate.residual >= 0.99

    def test_certificate_residual_recomputable(self):
        rng = np.random.default_rng(8)
        A, B = random_controllable(rng, n_max=3, m_max=2)
        dyn = _dyn(A, B)
        K = solve_lqr(dyn, (np.eye(A.shape[0]), np.eye(B.shape[1]))).K
        res = check_kalman_feasible(dyn, K)
        recomputed = kalman_residual(dyn, K, res.certificate)
        assert recomputed == pytest.approx(res.certificate.residual,
                                           abs=1e-10)

    @pytest.mark.parametrize("tol", [None, 1.0])
    def test_gain_whose_norm_overflows(self, tol):
        # ||K||_F = sqrt(8) 1e200: its square overflows, the default tol
        # and the fallback residual must not
        dyn = build_small_random(0)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = check_kalman_feasible(dyn, 1e200 * np.ones((2, 4)), tol)
        assert res.verdict == "infeasible"
        assert isinstance(res.witness, UnstableModeWitness)
        assert res.iterations == 0
        assert res.certificate.residual == pytest.approx(math.sqrt(8) * 1e200,
                                                         rel=1e-15)
        assert res.tol == (1e-6 * (1.0 + res.certificate.residual)
                           if tol is None else 1.0)

    def test_frobenius_norm_is_np_linalg_norm_bit_for_bit(self):
        rng = np.random.default_rng(29)
        for scale in (0.0, 1e-100, 1e-3, 1.0, 3e5, 1e100):
            for shape in ((1, 1), (1, 4), (2, 4), (3, 6)):
                K = scale * rng.standard_normal(shape)
                assert _frobenius(K) == np.linalg.norm(K)
                assert _frobenius(K) == np.linalg.norm(K, "fro")


@pytest.mark.parametrize("N", [1, 3, 10])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("system", ["small_random", "747"])
def test_two_step_reference_gain_is_feasible(system, seed, N):
    dyn, cost, sigma = (build_small_random(seed) if system == "small_random"
                        else build_aircraft())
    demos = generate_demos(dyn, solve_lqr(dyn, cost).K, sigma, N, 0.0,
                           rng_seed=[seed, N])
    K = two_step_reference(dyn, demos, LossSpec(), RegularizerSpec())
    assert check_kalman_feasible(dyn, K).verdict == "feasible"


def _dare_gain(dyn, Q, R):
    P = solve_discrete_are(dyn.A, dyn.B, Q, R)
    return -np.linalg.solve(R + dyn.B.T @ P @ dyn.B, dyn.B.T @ P @ dyn.A)


def _random_weight_lqr(n, m, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) / math.sqrt(n)
    B = rng.standard_normal((n, m))
    G, H = rng.standard_normal((n, n)), rng.standard_normal((m, m))
    dyn = LinearDynamics(A=A, B=B, W=np.eye(n))
    return dyn, _dare_gain(dyn, G @ G.T, np.eye(m) + H @ H.T)


@pytest.mark.parametrize("case", ["747", "n1", "n4", "n8", "n12"])
def test_reduced_map_equals_one_stein_solve_per_basis_matrix(case):
    """The stacked Stein solves of the reduced map against one solve per
    basis matrix, by the norm-based reference loop, bit for bit: the map
    and P of every basis matrix of (Q, R)."""
    if case == "747":
        dyn, cost, _ = build_aircraft()
        K = solve_lqr(dyn, cost).K
    else:
        n = int(case[1:])
        dyn, K = _random_weight_lqr(n, max(1, n // 3), seed=n)
    F = dyn.closed_loop(K)
    assert spectral_radius(F) < 1.0
    Mat, P_basis = _reduced_map(F, dyn.B, K)
    ref_Mat, ref_P = reduced_map_reference(F, dyn.B, K)
    assert np.array_equal(Mat, ref_Mat)
    assert np.array_equal(P_basis, ref_P)
    dim_n = dyn.n * (dyn.n + 1) // 2
    assert P_basis.shape == (dim_n + dyn.m * (dyn.m + 1) // 2, dyn.n, dyn.n)


def _identity_gains(case):
    """Stable gains of one system of ``case`` for the identity tests: an
    LQR gain (feasible), that gain moved by 0.1 of its norm (0.01 on the
    747, whose loop a larger move can make unstable), and a random gain on
    A = 0 (a Farkas witness), each with its system."""
    if case == "small_random":
        dyn, cost, _ = build_small_random(0)
        K = solve_lqr(dyn, cost).K
    elif case == "747":
        dyn, cost, _ = build_aircraft()
        K = solve_lqr(dyn, cost).K
    else:
        n = int(case[1:])
        dyn, K = _random_weight_lqr(n, max(1, n // 3), seed=n)
    rng = np.random.default_rng(len(case))
    D = rng.standard_normal(K.shape)
    zero = _dyn(np.zeros((dyn.n, dyn.n)), dyn.B)
    G = rng.standard_normal(K.shape)
    move = 0.01 if case == "747" else 0.1
    return [(dyn, K), (dyn, K + move * D * np.linalg.norm(K)
                       / np.linalg.norm(D)),
            (zero, 0.5 * G / spectral_radius(dyn.B @ G))]


@pytest.mark.parametrize("case", ["small_random", "747", "n2", "n3", "n4",
                                  "n5", "n6", "n7", "n8"])
def test_check_reads_p_and_witness_off_the_basis_solutions(case):
    """certify's P is Lyap(F, Q + K'RK) and a Farkas witness's blocks,
    Mat^T vec(Y), are X = F X F' + sym(B Y F') and
    Wr = sym(Y K') + K X K', each to 1e-10 of its scale: on the check's
    answers and on random points of every stable gain."""
    rng = np.random.default_rng(len(case) + 1)
    verdicts = []
    for dyn, K in _identity_gains(case):
        (n, m), F = dyn.B.shape, dyn.closed_loop(K)
        assert spectral_radius(F) < 1.0

        def assert_p(cert):
            P = solve_lyapunov_stein(F, cert.Q + K.T @ cert.R @ K)
            assert (np.abs(cert.P - P).max()
                    <= 1e-10 * np.linalg.norm(P)), case

        def assert_blocks(Y, Wq, Wr):
            X = solve_lyapunov_stein(F.T, 0.5 * (dyn.B @ Y @ F.T
                                                 + F @ Y.T @ dyn.B.T))
            YK = Y @ K.T
            W = 0.5 * (YK + YK.T) + K @ X @ K.T
            scale = math.hypot(np.linalg.norm(X), np.linalg.norm(W))
            assert np.abs(Wq - X).max() <= 1e-10 * scale, case
            assert np.abs(Wr - W).max() <= 1e-10 * scale, case

        res = check_kalman_feasible(dyn, K)
        verdicts.append(res.verdict)
        if res.feasible:
            assert_p(res.certificate)
        if isinstance(res.witness, FarkasWitness):
            assert_blocks(res.witness.Y, res.witness.Wq, res.witness.Wr)
        check = riccati._ReducedCheck(dyn.A, dyn.B, K, math.inf)
        for _ in range(3):
            G, H = rng.standard_normal((n, n)), rng.standard_normal((m, m))
            assert_p(check.certify(G @ G.T, np.eye(m) + H @ H.T))
            Y = rng.standard_normal((m, n))
            assert_blocks(Y, *check.svec.split(check.adjoint @ Y.ravel()))
    assert verdicts[0] == "feasible" and verdicts[2] == "infeasible"


def test_one_stein_solve_per_reduced_check(monkeypatch):
    """Every reduced check, from 0 to 68 Newton steps, makes one Stein
    solve: its basis solutions; route 3 makes it for its restricted
    system and route 1 none."""
    calls = {"stein": 0, "checks": 0}
    stein = linsys.solve_lyapunov_stein

    def counted(*args, **kwargs):
        calls["stein"] += 1
        return stein(*args, **kwargs)

    class Counted(riccati._ReducedCheck):
        def __init__(self, *args, **kwargs):
            calls["checks"] += 1
            super().__init__(*args, **kwargs)

    for module in (riccati, conic_ls, linsys):
        monkeypatch.setattr(module, "solve_lyapunov_stein", counted)
    monkeypatch.setattr(riccati, "_ReducedCheck", Counted)
    per_case = []
    for dyn, K, steps in _raw_path_gains():
        calls.update(stein=0, checks=0)
        assert check_kalman_feasible(dyn, K).iterations == steps
        per_case.append((calls["checks"], calls["stein"]))
    # the sixth case has an unstable mode outside ker K (route 1)
    assert per_case == [(1, 1)] * 5 + [(0, 0)] + [(1, 1)] * 2


class TestFeasibilityRoutes:
    @pytest.mark.parametrize("Q, R", [(np.diag([1.0, 1.0, 10.0, 10.0]),
                                       np.eye(2)),
                                      (np.eye(4), 2.0 * np.eye(2))])
    def test_badly_scaled_747_gains_certified(self, Q, R):
        dyn = build_aircraft()[0]
        K = _dare_gain(dyn, Q, R)
        t0 = time.perf_counter()
        res = check_kalman_feasible(dyn, K)
        elapsed = time.perf_counter() - t0
        assert res.verdict == "feasible" and res.feasible
        assert res.witness is None
        assert kalman_residual(dyn, K, res.certificate) <= res.tol
        assert elapsed < 1.0

    def test_zero_dynamics_stable_gain_has_farkas_witness(self):
        rng = np.random.default_rng(11)
        B = rng.standard_normal((4, 2))
        K = rng.standard_normal((2, 4))
        K *= 0.5 / spectral_radius(B @ K)
        # the second input's null space lies in tr Q + tr R = 0
        for B, K in ((B, K), (np.eye(2), 0.5 * np.eye(2))):
            (n, m), F = B.shape, B @ K
            res = check_kalman_feasible(_dyn(np.zeros((n, n)), B), K)
            assert res.verdict == "infeasible"
            w = res.witness
            assert isinstance(w, FarkasWitness)
            # re-derive the witness blocks from the multiplier alone:
            # X = F X F' + sym(B Y F'), Wr = sym(Y K') + K X K'
            S = B @ w.Y @ F.T
            X = solve_discrete_lyapunov(F, 0.5 * (S + S.T))
            YK = w.Y @ K.T
            Wr = 0.5 * (YK + YK.T) + K @ X @ K.T
            scale = math.hypot(np.linalg.norm(X), np.linalg.norm(Wr))
            assert np.allclose(X, w.Wq, atol=1e-10 * scale)
            assert np.linalg.eigvalsh(X).min() >= -1e-9 * scale
            assert np.linalg.eigvalsh(Wr).min() >= -1e-9 * scale
            assert np.trace(Wr) >= 1e-6 * scale
            # <Y, RK + B'P(Q, R)F> = <X, Q> + <Wr, R> for any (Q, R): so no
            # Q >= 0, R >= I zeroes the constraint
            for _ in range(3):
                G = rng.standard_normal((n, n))
                H = rng.standard_normal((m, m))
                Q, R = G @ G.T, np.eye(m) + H @ H.T
                P = solve_discrete_lyapunov(F.T, Q + K.T @ R @ K)
                lhs = np.sum(w.Y * (R @ K + B.T @ P @ F))
                rhs = np.sum(X * Q) + np.sum(Wr * R)
                assert lhs == pytest.approx(rhs, rel=1e-9)
                assert rhs >= np.trace(Wr) * (1 - 1e-9)

    def test_unstable_gain_has_eigenpair_witness(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 2))
        K = 3.0 * rng.standard_normal((2, 4))
        res = check_kalman_feasible(_dyn(A, B), K)
        assert res.verdict == "infeasible" and res.iterations == 0
        w = res.witness
        assert isinstance(w, UnstableModeWitness)
        F = A + B @ K
        v, lam = w.vector, w.eigenvalue
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.linalg.norm(F @ v - lam * v) <= 1e-10 * np.linalg.norm(F)
        assert abs(lam) >= 1.0
        # (1 - |lam|^2) v*Pv = v*(Q + K'RK)v >= |Kv|^2 > 0 is then impossible
        assert np.linalg.norm(K @ v) > 1e-6
        # the reported cone point leaves residual ||K||_F
        assert kalman_residual(_dyn(A, B), K, res.certificate) == \
            pytest.approx(np.linalg.norm(K))

    def test_rank_one_weight_gain_stays_certified(self):
        # a rank-one Q puts the last two draws on a face of the cone,
        # where no null-space point has Q > 0
        rng = np.random.default_rng(5)
        for _ in range(6):
            dyn = build_small_random(int(rng.integers(2**31)))[0]
            g = rng.standard_normal((4, 1))
            K = _dare_gain(dyn, g @ g.T, np.eye(2))
            res = check_kalman_feasible(dyn, K)
            assert res.feasible
            assert kalman_residual(dyn, K, res.certificate) <= res.tol

    def test_perturbed_lqr_gains_have_farkas_witnesses(self):
        # stable closed loops of LQR gains plus noise, each proved
        # infeasible within a second
        rng = np.random.default_rng(11)
        count = 0
        while count < 16:
            dyn, cost, _ = build_small_random(rng)
            K = solve_lqr(dyn, cost).K + 0.3 * rng.standard_normal((2, 4))
            if spectral_radius(dyn.closed_loop(K)) >= 1.0:
                continue
            count += 1
            t0 = time.perf_counter()
            res = check_kalman_feasible(dyn, K)
            assert time.perf_counter() - t0 < 1.0
            assert res.verdict == "infeasible"
            assert isinstance(res.witness, FarkasWitness)

    def test_singular_newton_system_ends_the_path(self, monkeypatch):
        # a gain that needs Newton steps (infeasible after 29 of them);
        # once every Newton system is singular, the path of both barrier
        # methods ends after one step, and each answers from its start
        dyn = build_small_random(4)[0]
        rng = np.random.default_rng(4)
        G, H = rng.standard_normal((4, 4)), rng.standard_normal((2, 2))
        K = solve_lqr(dyn, (G @ G.T, np.eye(2) + H @ H.T)).K
        K = K + 1e-3 * rng.standard_normal(K.shape)
        res = check_kalman_feasible(dyn, K)
        assert res.verdict == "infeasible" and res.iterations == 29

        class SingularSolve:
            """The LAPACK gufuncs, with every Newton system singular."""

            def __getattr__(self, name):
                return getattr(linsys._LAPACK, name)

            @staticmethod
            def solve1(*args, **kwargs):
                raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(conic_ls, "_LAPACK", SingularSolve())
        res = check_kalman_feasible(dyn, K)
        assert res.verdict == "undecided" and res.witness is None
        assert res.iterations == 1
        step = solve_pqr_step(dyn, K, np.zeros((4, 4)), np.zeros((2, 4)),
                              rho=1.0)
        assert not step.converged and step.iterations == 1
        F = dyn.closed_loop(K)
        P0 = 2.0 * solve_lyapunov_stein(F, np.eye(4) + K.T @ K)
        assert np.allclose(step.P, P0, rtol=1e-12, atol=0.0)
        assert np.allclose(step.Q, 2.0 * np.eye(4), rtol=1e-12, atol=0.0)
        assert np.allclose(step.R, 2.0 * np.eye(2), rtol=1e-12, atol=0.0)

    def test_unstable_modes_in_ker_k_are_split_off(self):
        A = np.diag([2.0, 0.5])
        B = np.array([[0.0], [1.0]])
        # K = 0: (0, 0, I) is exact, also on a Jordan block, whose second
        # mode is split off from the smaller system
        for A0 in (A, np.array([[1.5, 1.0], [0.0, 1.5]])):
            res = check_kalman_feasible(_dyn(A0, B), np.zeros((1, 2)))
            assert res.feasible and res.certificate.residual == 0.0
        # the LQR gain of the stable mode, which B reaches alone
        k = solve_lqr(_dyn(A[1:, 1:], B[1:]), (np.eye(1), np.eye(1))).K
        K = np.hstack([np.zeros((1, 1)), k])
        res = check_kalman_feasible(_dyn(A, B), K)
        assert res.feasible and res.iterations == 0
        assert kalman_residual(_dyn(A, B), K, res.certificate) <= res.tol
        assert np.allclose(res.certificate.P[0], 0.0)


class _PublicLinalg:
    """numpy.linalg's public function for each LAPACK gufunc that the
    optimality check and the cold (P, Q, R) step call directly, with a
    count of the calls."""

    _ROUTINES = {"eigh_lo": ("d->dd", lambda a: tuple(np.linalg.eigh(a))),
                 "eigvalsh_lo": ("d->d", np.linalg.eigvalsh),
                 "inv": ("d->d", np.linalg.inv),
                 "solve1": ("dd->d", np.linalg.solve),
                 "svd_f": ("d->ddd", lambda a: tuple(np.linalg.svd(a)))}

    def __init__(self):
        self.calls = dict.fromkeys(self._ROUTINES, 0)

    def __getattr__(self, name):
        expected, public = self._ROUTINES[name]

        def call(*args, signature):
            assert signature == expected, name
            self.calls[name] += 1
            return public(*args)

        return call


def _raw_path_gains():
    """(system, gain, Newton steps) of every route: a unit-weight and
    three random-weight LQR gains of small_random systems, the latter's
    panel that of the check-optimality benchmark, with 0, 21 and 37 steps;
    a stable gain on A = 0 (a Farkas witness); a gain with an unstable
    mode outside ker K; a 747 gain; and K = 0 with an unstable mode, whose
    check on the stable modes takes 68 steps (route 3)."""
    unit = build_small_random(7)[0]
    cases = [(unit, _dare_gain(unit, np.eye(4), np.eye(2)), 0)]
    panel = np.random.default_rng(0)
    for steps in (0, 21, 37):
        dyn = build_small_random(int(panel.integers(2**31)))[0]
        G, H = panel.standard_normal((4, 4)), panel.standard_normal((2, 2))
        cases.append((dyn, _dare_gain(dyn, G @ G.T, np.eye(2) + H @ H.T),
                      steps))
    rng = np.random.default_rng(12)
    B, K = rng.standard_normal((4, 2)), rng.standard_normal((2, 4))
    cases.append((_dyn(np.zeros((4, 4)), B),
                  0.5 * K / spectral_radius(B @ K), 0))
    A, B = rng.standard_normal((4, 4)), rng.standard_normal((4, 2))
    cases.append((_dyn(A, B), 3.0 * rng.standard_normal((2, 4)), 0))
    aircraft = build_aircraft()[0]
    cases.append((aircraft, _dare_gain(aircraft, np.diag([1.0, 1.0, 10.0,
                                                          10.0]),
                                       np.eye(2)), 0))
    cases.append((_dyn(np.diag([2.0, 0.5, 0.3]), rng.standard_normal((3, 1))),
                  np.zeros((1, 3)), 68))
    return cases


class TestRawLapackPath:
    """The check and the cold (P, Q, R) step call LAPACK's gufuncs
    directly; with numpy.linalg's public functions in their place, every
    answer stays the same, bit for bit."""

    def test_public_functions_give_the_same_answers(self, monkeypatch):
        cases = _raw_path_gains()
        direct = [check_kalman_feasible(dyn, K) for dyn, K, _ in cases]
        assert [r.iterations for r in direct] == [s for *_, s in cases]
        dyn, K, _ = cases[2]
        rng = np.random.default_rng(3)
        Y1, Y2 = (0.2 * rng.standard_normal(s) for s in ((4, 4), (2, 4)))
        fields = ("P", "Q", "R", "objective", "iterations", "converged",
                  "gap")
        cold = solve_pqr_step(dyn, K + 1e-3, Y1, Y2, rho=1.0)
        public = _PublicLinalg()
        for module in (conic_ls, riccati, linsys):
            monkeypatch.setattr(module, "_LAPACK", public)
        for (dyn_i, K_i, _), res in zip(cases, direct):
            again = check_kalman_feasible(dyn_i, K_i)
            assert repr(again.to_dict()) == repr(res.to_dict())
            assert again.iterations == res.iterations
        again = solve_pqr_step(dyn, K + 1e-3, Y1, Y2, rho=1.0)
        for f in fields:
            assert (np.asarray(getattr(again, f)).tobytes()
                    == np.asarray(getattr(cold, f)).tobytes()), f
        assert all(public.calls.values()), public.calls

    def test_stable_loop_computes_no_norm(self, monkeypatch):
        # no mode on or outside the unit circle: no gain, no witness
        dyn = build_small_random(7)[0]
        K = _dare_gain(dyn, np.eye(4), np.eye(2))
        lam, V = np.linalg.eig(dyn.closed_loop(K))
        assert np.abs(lam).max() < 1.0

        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.norm on a stable loop")

        monkeypatch.setattr(np.linalg, "norm", forbidden)
        assert _unstable_mode_witness(K, lam, V) is None
