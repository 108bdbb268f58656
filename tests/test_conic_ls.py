import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqfit import build_aircraft, build_small_random, conic_ls
from lqfit.conic_ls import (KalmanOperator, LossSpec, PqrStepResult,
                            RegularizerSpec, SingularFitError, huber_value,
                            project_psd, solve_k_step, solve_pqr_step)
from lqfit.bench import ExperimentConfig
from lqfit.kalman_fit import AdmmConfig, fit_kalman_batch
from lqfit.linsys import DemoSet, LinearDynamics, generate_demos
from lqfit.riccati import check_kalman_feasible, solve_lqr

from _oracles import (_face_basis, _svec_basis, polish_reference,
                      pqr_barrier, pqr_projected_gradient,
                      random_controllable, warm_step_reference)


def _dyn(A, B):
    n = A.shape[0]
    return LinearDynamics(A=A, B=B, W=np.zeros((n, n)))


QUAD = LossSpec("quadratic")
NO_REG = RegularizerSpec("ridge", 0.0)


class TestProjectPsd:
    def test_eigen_clamp(self):
        out = project_psd(np.diag([2.0, -1.0]))
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_idempotent_on_psd(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((3, 3))
        M = M @ M.T
        assert np.allclose(project_psd(M), M, atol=1e-12)

    def test_floor_one(self):
        assert np.allclose(project_psd(np.diag([0.5]), floor=1.0),
                           np.diag([1.0]))

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            X = rng.standard_normal((n, n))
            X = 0.5 * (X + X.T)
            Y = rng.standard_normal((n, n))
            Y = 0.5 * (Y + Y.T)
            PX, PY = project_psd(X), project_psd(Y)
            assert np.allclose(project_psd(PX), PX, atol=1e-12)
            assert (np.linalg.norm(PX - PY, "fro")
                    <= np.linalg.norm(X - Y, "fro") + 1e-12)

    def test_symmetrizes_input(self):
        M = np.array([[1.0, 1.0], [0.0, 1.0]])
        out = project_psd(M)
        assert np.allclose(out, out.T)

    def test_stack_equals_each_matrix(self):
        rng = np.random.default_rng(2)
        S = rng.standard_normal((5, 4, 4))
        for floor in (0.0, 1.0):
            stacked = project_psd(S, floor)
            for k in range(len(S)):
                assert np.allclose(stacked[k], project_psd(S[k], floor),
                                   rtol=1e-14, atol=1e-14)


    @pytest.mark.parametrize("args", [
        (np.full((2, 2), np.nan),), (np.diag([np.inf, 1.0]),),
        (np.full((2, 4, 4), np.nan),), (np.diag([1.0, -np.inf]), 1.0)])
    def test_non_finite_matrix_rejected(self, args):
        with pytest.raises(ValueError, match="S must be finite"):
            project_psd(*args)

    @pytest.mark.parametrize("floor", [np.nan, np.inf, True, "1"])
    def test_non_finite_floor_rejected(self, floor):
        with pytest.raises(ValueError, match="floor must be a finite real"):
            project_psd(np.eye(2), floor)

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="S must be a square matrix"):
            project_psd(np.ones(shape))


class TestHuber:
    def test_quadratic_branch(self):
        assert huber_value(0.2, 0.5) == pytest.approx(0.02)

    def test_linear_branch(self):
        assert huber_value(1.0, 0.5) == pytest.approx(0.375)

    def test_branch_agreement_at_threshold(self):
        for M in (0.25, 0.5, 2.0):
            assert huber_value(M, M) == pytest.approx(M * M / 2.0)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(-20, 20), M=st.floats(0.01, 5.0))
    def test_formula(self, a, M):
        v = huber_value(a, M)
        if abs(a) <= M:
            assert v == pytest.approx(a * a / 2.0, abs=1e-12)
        else:
            assert v == pytest.approx(M * abs(a) - M * M / 2.0, rel=1e-12)
        assert v >= 0.0

    def test_vectorized(self):
        out = huber_value(np.array([0.2, 1.0]), 0.5)
        assert np.allclose(out, [0.02, 0.375])

    def test_nonpositive_m_rejected(self):
        with pytest.raises(ValueError):
            huber_value(1.0, 0.0)


_NAN = float("nan")
_INF = float("inf")
_GUARD_DYN = LinearDynamics(A=0.5 * np.eye(2), B=np.eye(2)[:, :1],
                            W=np.zeros((2, 2)))
_GUARD_K = np.array([[-0.2, 0.0]])
_GUARD_ZEROS = (np.zeros((2, 2)), np.zeros((1, 2)))
_GUARD_INIT = (np.eye(2), np.eye(2), np.eye(1))
_GUARD_DEMOS = DemoSet(states=np.eye(2), inputs=np.ones((2, 1)))


@pytest.mark.parametrize("name, call", [
    ("rho", lambda: AdmmConfig(rho=_NAN)),
    ("eps", lambda: AdmmConfig(eps=_NAN)),
    ("ridge weight", lambda: RegularizerSpec("ridge", _NAN)),
    ("huber_m", lambda: LossSpec("huber", huber_m=_NAN)),
    ("huber parameter M", lambda: huber_value(1.0, _NAN)),
    ("rho", lambda: solve_pqr_step(_GUARD_DYN, _GUARD_K, *_GUARD_ZEROS,
                                   rho=_NAN)),
    ("rho", lambda: solve_pqr_step(_GUARD_DYN, _GUARD_K, *_GUARD_ZEROS,
                                   rho=_NAN, init=_GUARD_INIT, max_iter=5)),
    ("rho", lambda: solve_k_step(_GUARD_DEMOS, QUAD, NO_REG, _NAN,
                                 *_GUARD_INIT, *_GUARD_ZEROS, _GUARD_DYN)),
    ("tol", lambda: check_kalman_feasible(_GUARD_DYN, _GUARD_K, tol=_NAN)),
    ("tol", lambda: check_kalman_feasible(_GUARD_DYN, _GUARD_K, tol=-1e-6)),
    ("tol", lambda: check_kalman_feasible(_GUARD_DYN, _GUARD_K,
                                          tol=float("inf"))),
    ("rho", lambda: AdmmConfig(rho=_INF)),
    ("rho", lambda: AdmmConfig(rho=True)),
    ("eps", lambda: AdmmConfig(eps=_INF)),
    ("eps", lambda: AdmmConfig(eps=True)),
    ("ridge weight", lambda: RegularizerSpec("ridge", _INF)),
    ("ridge weight", lambda: RegularizerSpec("ridge", True)),
    ("huber_m", lambda: LossSpec("huber", huber_m=_INF)),
    ("huber_m", lambda: LossSpec("huber", huber_m=True)),
    ("huber parameter M", lambda: huber_value(1.0, _INF)),
    ("rho", lambda: solve_pqr_step(_GUARD_DYN, _GUARD_K, *_GUARD_ZEROS,
                                   rho=_INF)),
    ("rho", lambda: solve_k_step(_GUARD_DEMOS, QUAD, NO_REG, _INF,
                                 *_GUARD_INIT, *_GUARD_ZEROS, _GUARD_DYN)),
    ("tol", lambda: check_kalman_feasible(_GUARD_DYN, _GUARD_K, tol=True)),
    ("outlier_prob", lambda: generate_demos(_GUARD_DYN, _GUARD_K, np.eye(1),
                                            2, 1.5, 0)),
    ("outlier_prob", lambda: generate_demos(_GUARD_DYN, _GUARD_K, np.eye(1),
                                            2, True, 0)),
], ids=["admm-rho", "admm-eps", "ridge", "huber-spec", "huber-value",
        "pqr-cold", "pqr-warm", "k-step", "tol-nan", "tol-negative",
        "tol-inf", "admm-rho-inf", "admm-rho-bool", "admm-eps-inf",
        "admm-eps-bool", "ridge-inf", "ridge-bool", "huber-spec-inf",
        "huber-spec-bool", "huber-value-inf", "pqr-inf", "k-step-inf",
        "tol-bool", "outlier-prob-above-one", "outlier-prob-bool"])
def test_rejects_nan_and_out_of_range_parameters(name, call):
    """NaN fails every `x <= 0`-style test, so each guard must reject it;
    infinities and bools are rejected too (every real parameter must be a
    finite real number in its range), naming the parameter."""
    with pytest.raises(ValueError, match=name):
        call()


def test_parameter_guards_keep_their_boundary_values():
    AdmmConfig(eps=0.0)
    RegularizerSpec("ridge", 0.0)
    assert solve_k_step(_GUARD_DEMOS, QUAD, NO_REG, 0.0).shape == (1, 2)
    assert check_kalman_feasible(_GUARD_DYN, _GUARD_K, tol=0.0).tol == 0.0
    for p in (0, 1.0):
        demos = generate_demos(_GUARD_DYN, _GUARD_K, np.eye(1), 2, p, 0)
        assert demos.inputs.shape == (2, 1)
    assert ExperimentConfig(outlier_prob=1.0).outlier_prob == 1.0


def _kstep_plain(demos, loss, reg):
    n = demos.states.shape[1]
    m = demos.inputs.shape[1]
    dyn = _dyn(np.zeros((n, n)), np.zeros((n, m)))
    return solve_k_step(demos, loss, reg, 0.0, np.zeros((n, n)),
                        np.zeros((n, n)), np.eye(m), np.zeros((n, n)),
                        np.zeros((m, n)), dyn)


class TestKStep:
    def test_scalar_ridge(self):
        demos = DemoSet(states=[[1.0]], inputs=[[2.0]])
        K = _kstep_plain(demos, QUAD, RegularizerSpec("ridge", 0.01))
        assert K[0, 0] == pytest.approx(2.0 / 1.01, abs=1e-12)

    def test_interpolation(self):
        rng = np.random.default_rng(3)
        K0 = rng.standard_normal((2, 3))
        X = rng.standard_normal((5, 3))
        demos = DemoSet(states=X, inputs=X @ K0.T)
        K = _kstep_plain(demos, QUAD, NO_REG)
        assert np.allclose(K, K0, atol=1e-10)

    def test_penalty_dominates(self):
        rng = np.random.default_rng(4)
        A, B = random_controllable(rng, n_max=4, m_max=2)
        n, m = A.shape[0], B.shape[1]
        dyn = _dyn(A, B)
        sol = solve_lqr(dyn, (np.eye(n), np.eye(m)))
        X = rng.standard_normal((10, n))
        demos = DemoSet(states=X, inputs=X @ sol.K.T)
        K = solve_k_step(demos, QUAD, NO_REG, 1e6, sol.P, np.eye(n),
                         np.eye(m), np.zeros((n, n)), np.zeros((m, n)), dyn)
        assert np.linalg.norm(K - sol.K) <= 1e-3

    @pytest.mark.parametrize("given, first", [
        (("Q", "R", "Y1", "Y2"), "P"), (("P", "R", "Y1", "Y2"), "Q"),
        (("P", "Q", "Y1", "Y2"), "R"), (("P", "Q", "R", "Y2"), "Y1"),
        (("P", "Q", "R", "Y1"), "Y2"), (("P",), "Q"), ((), "P")])
    def test_penalty_needs_every_matrix(self, given, first):
        # np.asarray(None, dtype=float) is NaN: without the check a missing
        # matrix gives a NaN gain, or a matmul error when all are missing
        dyn, cost, sigma = build_small_random(0)
        demos = generate_demos(dyn, solve_lqr(dyn, cost).K, sigma, 3, 0.0, 0)
        n, m = dyn.n, dyn.m
        args = {"P": np.eye(n), "Q": np.eye(n), "R": np.eye(m),
                "Y1": np.zeros((n, n)), "Y2": np.zeros((m, n))}
        with pytest.raises(ValueError, match=f"^rho > 0 needs {first}$"):
            solve_k_step(demos, QUAD, NO_REG, 1.0, dyn=dyn,
                         **{name: args[name] for name in given})

    def test_singular_raises(self):
        demos = DemoSet(states=[[1.0, 0.0]], inputs=[[1.0]])  # rank 1 < n
        with pytest.raises(SingularFitError):
            _kstep_plain(demos, QUAD, NO_REG)

    @pytest.mark.parametrize("shared_dyn", [True, False],
                             ids=["one-system", "per-member-systems"])
    @pytest.mark.parametrize("shared_demos", [True, False],
                             ids=["shared-demos", "per-member-demos"])
    @pytest.mark.parametrize("lam", [0.01, 0.0])
    @pytest.mark.parametrize("loss", [QUAD, LossSpec("huber", huber_m=1.0)],
                             ids=["quadratic", "huber"])
    def test_stack_equals_member_calls(self, monkeypatch, loss, lam,
                                       shared_demos, shared_dyn):
        rng = np.random.default_rng(9)
        S, n, m = 4, 4, 2
        built = [build_small_random(seed) for seed in range(S)]
        systems = [b[0] for b in built]
        demo_sets = [generate_demos(d, solve_lqr(d, c).K, sigma, N, 0.2,
                                    seed)
                     for seed, ((d, c, sigma), N) in enumerate(
                         zip(built, (3, 5, 8, 12)))]

        def psd(size, shift=0.0):
            G = rng.standard_normal((S, size, size))
            return G @ G.swapaxes(-1, -2) + shift * np.eye(size)

        P, Q, R = psd(n), psd(n), psd(m, 1.0)
        Y1 = rng.standard_normal((S, n, n))
        Y2 = rng.standard_normal((S, m, n))
        demos = demo_sets[0] if shared_demos else demo_sets
        dyn = systems[0] if shared_dyn else systems
        reg = RegularizerSpec("ridge", lam)
        stacked = solve_k_step(demos, loss, reg, 1.0, P, Q, R, Y1, Y2, dyn)
        assert stacked.shape == (S, m, n)
        # the IRLS reweightings of each member, counted on its own call
        count = [0]
        weights = conic_ls._huber_weights

        def counted(*args):
            count[0] += 1
            return weights(*args)

        monkeypatch.setattr(conic_ls, "_huber_weights", counted)
        reweightings = []
        for i in range(S):
            count[0] = 0
            K = solve_k_step(conic_ls.per_member(demos, S)[i], loss, reg,
                             1.0, P[i], Q[i], R[i], Y1[i], Y2[i],
                             conic_ls.per_member(dyn, S)[i])
            assert np.array_equal(stacked[i], K)
            reweightings.append(count[0])
        if loss.kind == "huber":
            assert len(set(reweightings)) > 1
        else:
            assert reweightings == [0] * S

    def test_local_minimality(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 3))
        U = rng.standard_normal((6, 2))
        demos = DemoSet(states=X, inputs=U)
        reg = RegularizerSpec("ridge", 0.05)
        for loss in (QUAD, LossSpec("huber", huber_m=0.4)):
            K = _kstep_plain(demos, loss, reg)
            from lqfit.fitting import fit_objective
            f0 = fit_objective(demos, K, loss, reg)
            for _ in range(20):
                D = rng.standard_normal(K.shape)
                D *= 1e-3 / np.linalg.norm(D)
                assert fit_objective(demos, K + D, loss, reg) >= f0 - 1e-12

    def test_huber_equals_quadratic_inside_branch(self):
        rng = np.random.default_rng(6)
        K0 = rng.standard_normal((2, 3))
        X = rng.standard_normal((8, 3))
        U = X @ K0.T + 1e-6 * rng.standard_normal((8, 2))
        demos = DemoSet(states=X, inputs=U)
        Kq = _kstep_plain(demos, QUAD, NO_REG)
        Kh = _kstep_plain(demos, LossSpec("huber", huber_m=0.5), NO_REG)
        assert np.linalg.norm(Kq - Kh) <= 1e-9

    def test_huber_downweights_outliers(self):
        rng = np.random.default_rng(7)
        K0 = np.array([[1.0, -0.5]])
        X = rng.standard_normal((40, 2))
        U = X @ K0.T
        U[::7] *= -1.0  # sign-flip outliers
        demos = DemoSet(states=X, inputs=U)
        reg = RegularizerSpec("ridge", 0.01)
        Kq = _kstep_plain(demos, QUAD, reg)
        Kh = _kstep_plain(demos, LossSpec("huber", huber_m=0.5), reg)
        assert (np.linalg.norm(Kh - K0) < np.linalg.norm(Kq - K0))


def _sym_rand(rng, k):
    X = rng.standard_normal((k, k))
    return X + X.T


def _svec(M):
    iu = np.triu_indices(len(M))
    return M[iu] * np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))


class TestKalmanOperator:
    def _random(self, rng):
        A, B = random_controllable(rng, n_max=4, m_max=3)
        n, m = A.shape[0], B.shape[1]
        op = KalmanOperator(A, B, rng.standard_normal((m, n)))
        return op, (_sym_rand(rng, n), _sym_rand(rng, n), _sym_rand(rng, m))

    def test_matrix_matches_apply(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            op, (P, Q, R) = self._random(rng)
            x = np.concatenate([_svec(P), _svec(Q), _svec(R)])
            M1, M2 = op.apply(P, Q, R)
            assert np.allclose(op.matrix() @ x,
                               np.concatenate([M1.ravel(), M2.ravel()]),
                               rtol=1e-12, atol=1e-12)

    def test_matrix_equals_apply_of_each_basis_matrix_bit_for_bit(self):
        # one apply call per svec basis matrix, for stacks and single
        # operators; K = 0 and rows of -0.0 in A and B make products of
        # signed zeros, whose sum must keep its sign bit
        rng = np.random.default_rng(23)
        for trial in range(300):
            n, m, S = (int(k) for k in rng.integers(1, (6, 4, 4)))
            A = rng.standard_normal((S, n, n))
            B = rng.standard_normal((S, n, m))
            K = rng.standard_normal((S, m, n))
            if trial % 3 == 0:
                K[:] = 0.0
            if trial % 2 == 0:
                A[:, rng.integers(n)] = -0.0
                B[:, rng.integers(n)] = -0.0
            op = (KalmanOperator(A, B, K) if trial % 4 < 2
                  else KalmanOperator(A[0], B[0], K[0]))
            n, m, lead = op.n, op.m, op.K.shape[:-2]
            zn, zm = np.zeros((n, n)), np.zeros((m, m))
            blocks = ([(E, zn, zm) for E in _svec_basis(n)]
                      + [(zn, E, zm) for E in _svec_basis(n)]
                      + [(zn, zn, E) for E in _svec_basis(m)])
            ref = np.stack([np.concatenate([M.reshape(lead + (-1,))
                                            for M in op.apply(*X)], axis=-1)
                            for X in blocks], axis=-1)
            got = op.matrix()
            assert np.array_equal(got, ref)
            assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_objective_is_squared_norm_of_apply(self):
        rng = np.random.default_rng(22)
        op, (P, Q, R) = self._random(rng)
        M1, M2 = op.apply(P, Q, R)
        assert op.objective(P, Q, R, -M1, -M2) == 0.0
        assert op.objective(P, Q, R) == pytest.approx(
            np.sum(M1 ** 2) + np.sum(M2 ** 2), rel=1e-14)


class TestSvecLayout:
    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("sizes", [(4,), (4, 2), (4, 4, 2), (2, 2, 4),
                                       (1, 3)])
    def test_join_matches_svec_and_split_undoes_it(self, sizes, lead):
        rng = np.random.default_rng(24)
        Xs = [rng.standard_normal(lead + (k, k)) for k in sizes]
        Xs = [X + X.swapaxes(-1, -2) for X in Xs]
        svec = conic_ls._svec(*sizes)
        y = svec.join(Xs)
        members = [X.reshape((-1, k, k)) for X, k in zip(Xs, sizes)]
        ref = np.array([np.concatenate([_svec(M[i]) for M in members])
                        for i in range(len(members[0]))])
        assert np.array_equal(y, ref.reshape(lead + (-1,)))
        assert y.shape[-1] == svec.cuts[-1]
        for X, Z in zip(Xs, svec.split(y)):
            assert Z.shape == X.shape
            assert np.array_equal(Z, Z.swapaxes(-1, -2))
            assert np.array_equal(np.diagonal(Z, axis1=-2, axis2=-1),
                                  np.diagonal(X, axis1=-2, axis2=-1))
            # an off-diagonal entry is scaled by sqrt 2 and back, which
            # rounds it to within one unit in the last place
            np.testing.assert_array_max_ulp(Z, X, maxulp=1)

    @pytest.mark.parametrize("sizes", [(1, 1, 1), (3, 3, 1), (1, 1, 4),
                                       (2, 2, 3), (4, 4, 4), (5, 5, 2)])
    def test_padded_layout(self, sizes):
        svec = conic_ls._svec(*sizes)
        k, dim = max(sizes), svec.cuts[-1]
        slot, row, col = np.unravel_index(svec.pad_uplo[..., 0],
                                          (len(sizes), k, k))
        assert np.array_equal(row, col[::-1])
        # an svec point and the zero-padded stack of its blocks, built
        # entry by entry: coordinate j of block b is the block's j-th upper
        # triangle entry (i, l) in row-major order, at (k - s + i, k - s + l)
        # of slot b
        y = np.random.default_rng(25).standard_normal(dim)
        padded = np.zeros((len(sizes), k, k))
        reads = np.full((len(sizes), k, k), dim)
        for b, (s, a, e) in enumerate(zip(sizes, svec.cuts, svec.cuts[1:])):
            i, l = np.triu_indices(s)
            assert np.array_equal(slot[:, a:e], np.full((2, e - a), b))
            assert np.array_equal(row[0, a:e], k - s + i)
            assert np.array_equal(col[0, a:e], k - s + l)
            for j, (r, t) in enumerate(zip(k - s + i, k - s + l), start=a):
                reads[b, r, t] = reads[b, t, r] = j
                padded[b, r, t] = padded[b, t, r] = (
                    y[j] / (1.0 if r == t else np.sqrt(2.0)))
        assert np.array_equal(svec.pad_pos, reads)
        # a gather from the svec point with one zero appended is the padded
        # stack, and split returns its corners, views into one array
        assert np.array_equal(np.append(y / svec.scale, 0.0)[svec.pad_pos],
                              padded)
        blocks = svec.split(y)
        for b, (s, X) in enumerate(zip(sizes, blocks)):
            assert np.array_equal(X, padded[b, k - s:, k - s:])
            assert X.base is blocks[0].base


def _eig_project(X, floor):
    """The cone projection as the splitting loop computes it."""
    w, V = np.linalg.eigh(X)
    return V @ (np.maximum(w, floor)[..., None] * V.swapaxes(-1, -2))


@pytest.mark.parametrize("floor", [0.0, 1.0])
@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_zero_padded_projection_is_bit_for_bit(s, floor):
    """The LAPACK property the warm step's one padded projection rests on:
    a symmetric block in the bottom-right corner of a k x k zero matrix
    projects, in that corner, bit for bit as the block alone."""
    rng = np.random.default_rng(26 + s)
    blocks = []
    for scale in (1e-3, 1e-1, 1.0, 3e2, 1e5):
        for rank in range(s + 1):
            G = rng.standard_normal((s, rank))
            blocks.append(scale * (G @ G.T))          # PSD, rank-deficient
            blocks.append(scale * (G @ G.T) + scale * np.eye(s) * (
                rng.uniform() - 0.5))                  # indefinite
        X = rng.standard_normal((s, s))
        blocks.append(scale * (X + X.T))
    blocks = np.array(blocks)
    alone = _eig_project(blocks, floor)
    for k in range(s, 9):
        padded = np.zeros((len(blocks), k, k))
        padded[:, k - s:, k - s:] = blocks
        got = _eig_project(padded, floor)[:, k - s:, k - s:]
        assert np.array_equal(got, alone), k


class TestPqrStep:
    def test_zero_objective_at_lqr_solution(self):
        rng = np.random.default_rng(8)
        A, B = random_controllable(rng, n_max=4, m_max=2)
        n, m = A.shape[0], B.shape[1]
        dyn = _dyn(A, B)
        K = solve_lqr(dyn, (np.eye(n), np.eye(m))).K
        step = solve_pqr_step(dyn, K, np.zeros((n, n)), np.zeros((m, n)),
                              rho=1.0)
        assert step.objective <= 1e-10

    def test_zero_objective_at_random_weight_lqr_gains(self):
        # gains optimal for weights other than (I, I): Q = G G^T, rank one
        # on each system's first draw, and R = I + H H^T; on the 747 too
        rng = np.random.default_rng(123)
        A, B = random_controllable(np.random.default_rng(8), 4, 2)
        for dyn in (build_aircraft()[0], _dyn(A, B),
                    build_small_random(0)[0]):
            n, m = dyn.n, dyn.m
            for draw in range(3):
                G = rng.standard_normal((n, n))
                H = rng.standard_normal((m, m))
                Q = np.outer(G[0], G[0]) if draw == 0 else G @ G.T
                K = solve_lqr(dyn, (Q, np.eye(m) + H @ H.T)).K
                step = solve_pqr_step(dyn, K, np.zeros((n, n)),
                                      np.zeros((m, n)), rho=1.0)
                assert step.objective <= 1e-9, (n, m, draw)

    def test_zero_dynamics_zero_gain(self):
        B = np.array([[1.0], [0.5]])
        dyn = _dyn(np.zeros((2, 2)), B)
        step = solve_pqr_step(dyn, np.zeros((1, 2)), np.zeros((2, 2)),
                              np.zeros((1, 2)), rho=1.0)
        assert step.objective <= 1e-20

    def test_output_is_cone_feasible(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            A, B = random_controllable(rng, n_max=4, m_max=2)
            n, m = A.shape[0], B.shape[1]
            dyn = _dyn(A, B)
            K = rng.standard_normal((m, n)) * 0.4
            Y1 = rng.standard_normal((n, n)) * 0.2
            Y2 = rng.standard_normal((m, n)) * 0.2
            step = solve_pqr_step(dyn, K, Y1, Y2, rho=1.0)
            assert np.allclose(step.P, step.P.T)
            assert np.allclose(step.Q, step.Q.T)
            assert np.allclose(step.R, step.R.T)
            assert np.linalg.eigvalsh(step.P).min() >= -1e-8
            assert np.linalg.eigvalsh(step.Q).min() >= -1e-8
            assert np.linalg.eigvalsh(step.R).min() >= 1.0 - 1e-8

    def test_objective_matches_reported(self):
        rng = np.random.default_rng(10)
        A, B = random_controllable(rng, n_max=3, m_max=1)
        n, m = A.shape[0], B.shape[1]
        dyn = _dyn(A, B)
        K = rng.standard_normal((m, n)) * 0.3
        Y1 = rng.standard_normal((n, n)) * 0.1
        Y2 = rng.standard_normal((m, n)) * 0.1
        step = solve_pqr_step(dyn, K, Y1, Y2, rho=2.0)
        f = KalmanOperator(A, B, K).objective(step.P, step.Q, step.R,
                                              Y1 / 2.0, Y2 / 2.0)
        assert f == pytest.approx(step.objective, rel=1e-9, abs=1e-12)

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(11)
        A, B = random_controllable(rng, n_max=3, m_max=1, rho_scale=0.8)
        n, m = A.shape[0], B.shape[1]
        dyn = _dyn(A, B)
        K = solve_lqr(dyn, (np.eye(n), np.eye(m))).K
        K = K + 0.1 * rng.standard_normal(K.shape)
        Y1 = 0.3 * rng.standard_normal((n, n))
        Y2 = 0.3 * rng.standard_normal((m, n))
        step = solve_pqr_step(dyn, K, Y1, Y2, rho=1.0)
        _, _, _, f_pg, _ = pqr_projected_gradient(A, B, K, Y1, Y2, rho=1.0)
        assert abs(step.objective - f_pg) <= 1e-4

    def test_warm_start_reaches_same_solution(self):
        rng = np.random.default_rng(12)
        A, B = random_controllable(rng, n_max=3, m_max=2, rho_scale=0.7)
        n, m = A.shape[0], B.shape[1]
        dyn = _dyn(A, B)
        K = rng.standard_normal((m, n)) * 0.2
        Y1 = 0.1 * rng.standard_normal((n, n))
        Y2 = 0.1 * rng.standard_normal((m, n))
        cold = solve_pqr_step(dyn, K, Y1, Y2, rho=1.0)
        warm = solve_pqr_step(dyn, K, Y1, Y2, rho=1.0, max_iter=20000,
                              init=(cold.P, cold.Q, cold.R), dual0=cold.dual)
        assert warm.objective <= cold.objective + 1e-10

    @staticmethod
    def _assert_members_match(stacked, singles):
        assert stacked.iterations == max(s.iterations for s in singles)
        assert isinstance(stacked.iterations, int)
        for i, single in enumerate(singles):
            for name in ("P", "Q", "R", "dual"):
                assert np.array_equal(getattr(stacked, name)[i],
                                      getattr(single, name)), (i, name)
            assert stacked.objective[i] == single.objective
            assert stacked.converged[i] == single.converged
            assert stacked.gap[i] == single.gap

    def test_stack_equals_calls_one_by_one(self):
        rng = np.random.default_rng(14)
        A, B = random_controllable(rng, n_max=4, m_max=2, rho_scale=0.9)
        n, m = A.shape[0], B.shape[1]
        p = n * (n + 1) + m * (m + 1) // 2
        dyn = _dyn(A, B)
        sol = solve_lqr(dyn, (np.eye(n), np.eye(m)))
        draws = [(0.4 * rng.standard_normal((m, n)),
                  0.2 * rng.standard_normal((n, n)),
                  0.2 * rng.standard_normal((m, n))) for _ in range(4)]
        # member 0 starts on its certificate, the others away from theirs;
        # every member runs the whole budget
        K = np.stack([sol.K] + [d[0] for d in draws])
        Y1 = np.stack([np.zeros((n, n))] + [d[1] for d in draws])
        Y2 = np.stack([np.zeros((m, n))] + [d[2] for d in draws])
        init = (np.stack([sol.P] + [np.eye(n)] * 4),
                np.stack([np.eye(n)] * 5), np.stack([np.eye(m)] * 5))
        dual0 = np.zeros((5, p))
        kw = dict(rho=1.0, max_iter=150)
        stacked = solve_pqr_step(dyn, K, Y1, Y2, init=init, dual0=dual0, **kw)
        singles = [solve_pqr_step(dyn, K[i], Y1[i], Y2[i],
                                  init=[M[i] for M in init], dual0=dual0[i],
                                  **kw) for i in range(5)]
        assert [s.iterations for s in singles] == [150] * 5
        self._assert_members_match(stacked, singles)

    def test_cold_stack_equals_calls_one_by_one(self):
        rng = np.random.default_rng(14)
        A, B = random_controllable(rng, n_max=3, m_max=2, rho_scale=0.8)
        n, m = A.shape[0], B.shape[1]
        dyn = _dyn(A, B)
        # each member takes its own barrier solve: the first gain starts on
        # its certificate, the second does not, and they take different
        # numbers of Newton steps
        K = np.stack([solve_lqr(dyn, (np.eye(n), np.eye(m))).K,
                      0.3 * rng.standard_normal((m, n))])
        Y1, Y2 = np.zeros((2, n, n)), np.zeros((2, m, n))
        stacked = solve_pqr_step(dyn, K, Y1, Y2, rho=1.0)
        singles = [solve_pqr_step(dyn, K[i], Y1[i], Y2[i], rho=1.0)
                   for i in range(2)]
        assert singles[0].iterations < singles[1].iterations
        self._assert_members_match(stacked, singles)

    @pytest.mark.parametrize("warm", [False, True])
    def test_single_call_is_member_zero_with_python_scalars(self, warm):
        # tools/grids.py writes these fields' repr, which a numpy scalar
        # would change
        rng = np.random.default_rng(16)
        A, B = random_controllable(rng, n_max=3, m_max=2, rho_scale=0.8)
        n, m = A.shape[0], B.shape[1]
        dyn = _dyn(A, B)
        K = 0.3 * rng.standard_normal((m, n))
        Y1 = 0.2 * rng.standard_normal((n, n))
        Y2 = 0.2 * rng.standard_normal((m, n))
        init = (np.eye(n), np.eye(n), np.eye(m)) if warm else None
        kw = dict(rho=1.0, max_iter=30)
        single = solve_pqr_step(dyn, K, Y1, Y2, init=init, **kw)
        stacked = solve_pqr_step(
            dyn, K[None], Y1[None], Y2[None],
            init=None if init is None else [M[None] for M in init], **kw)
        for name in ("objective", "gap"):
            assert type(getattr(single, name)) is float, name
        assert type(single.converged) is bool
        assert type(single.iterations) is int
        self._assert_members_match(stacked, [single])

    def test_stack_over_systems_equals_calls_one_by_one(self):
        # one gain per system: each member builds its operator from its own
        # (A, B), bit for bit as in a call on that system alone
        rng = np.random.default_rng(15)
        systems = []
        for _ in range(3):
            A = rng.standard_normal((3, 3))
            systems.append(_dyn(0.9 * A / np.abs(np.linalg.eigvals(A)).max(),
                                rng.standard_normal((3, 2))))
        K = 0.3 * rng.standard_normal((3, 2, 3))
        Y1 = 0.2 * rng.standard_normal((3, 3, 3))
        Y2 = 0.2 * rng.standard_normal((3, 2, 3))
        kw = dict(rho=1.0)
        stacked = solve_pqr_step(systems, K, Y1, Y2, **kw)
        singles = [solve_pqr_step(d, K[i], Y1[i], Y2[i], **kw)
                   for i, d in enumerate(systems)]
        self._assert_members_match(stacked, singles)
        other = _dyn(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            solve_pqr_step([systems[0], other], K[:2], Y1[:2], Y2[:2], **kw)

    def test_cold_unstable_closed_loops_match_barrier_oracle(self):
        # no Lyapunov start, so every member starts at (I, I, 2I)
        rng = np.random.default_rng(17)
        A = np.diag([1.5, 0.5, 0.2])
        B = rng.standard_normal((3, 2))
        K = 0.1 * rng.standard_normal((4, 2, 3))
        assert all(np.abs(np.linalg.eigvals(A + B @ k)).max() > 1.0
                   for k in K)
        step = solve_pqr_step(_dyn(A, B), K, np.zeros((4, 3, 3)),
                              np.zeros((4, 2, 3)), rho=1.0)
        assert step.converged.all()
        for k, f in zip(K, step.objective):
            *_, f_ref, _, reached = pqr_barrier(
                A, B, k, np.zeros((3, 3)), np.zeros((2, 3)), rho=1.0)
            assert reached and abs(f - f_ref) <= 1e-9

    def test_warm_call_runs_no_gap_test(self, monkeypatch):
        # converged and gap report the cold barrier's gap test alone, even
        # where a warm call starts at the cold optimum and runs 2000
        # iterations
        assert [f.name for f in dataclasses.fields(PqrStepResult)] == [
            "P", "Q", "R", "objective", "iterations", "converged", "gap",
            "dual"]
        rng = np.random.default_rng(18)
        A, B = random_controllable(rng, n_max=3, m_max=2, rho_scale=0.8)
        n, m = A.shape[0], B.shape[1]
        dyn = _dyn(A, B)
        K = 0.3 * rng.standard_normal((3, m, n))
        Y1 = 0.2 * rng.standard_normal((3, n, n))
        Y2 = 0.2 * rng.standard_normal((3, m, n))
        cold = solve_pqr_step(dyn, K, Y1, Y2, rho=1.0)
        assert cold.converged.all()
        # one centering: the gap test fails, and converged says so
        monkeypatch.setattr(conic_ls, "_BARRIER_ROUNDS", 1)
        short = solve_pqr_step(dyn, K, Y1, Y2, rho=1.0)
        assert not short.converged.any()
        for step in (cold, short):
            assert np.isfinite(step.gap).all()
            assert np.array_equal(
                step.converged, step.gap < 1e-12 * (1.0 + step.objective))
        init = (cold.P, cold.Q, cold.R)
        for max_iter in (1, 40, 2000):
            warm = solve_pqr_step(dyn, K, Y1, Y2, rho=1.0, max_iter=max_iter,
                                  init=init, dual0=cold.dual)
            assert warm.converged.dtype == bool
            assert warm.converged.shape == (3,) and not warm.converged.any()
            assert warm.gap.shape == (3,) and (warm.gap == math.inf).all()
            one = solve_pqr_step(dyn, K[0], Y1[0], Y2[0], rho=1.0,
                                 max_iter=max_iter,
                                 init=[M[0] for M in init])
            assert one.converged is False and one.gap == math.inf

    def test_warm_call_never_worse_than_start(self):
        # starts at the optimum (where the splitting moves away from it),
        # on the cones' boundary and inside them, for budgets of 1 to 40
        rng = np.random.default_rng(16)
        for _ in range(6):
            A, B = random_controllable(rng, n_max=4, m_max=2, rho_scale=0.9)
            n, m = A.shape[0], B.shape[1]
            dyn = _dyn(A, B)
            K = 0.4 * rng.standard_normal((m, n))
            Y1 = 0.2 * rng.standard_normal((n, n))
            Y2 = 0.2 * rng.standard_normal((m, n))
            cold = solve_pqr_step(dyn, K, Y1, Y2, rho=1.0)
            G = rng.standard_normal((n, n))
            starts = [(cold.P, cold.Q, cold.R),
                      (np.zeros((n, n)), np.zeros((n, n)), np.eye(m)),
                      (G @ G.T, np.eye(n), 2.0 * np.eye(m))]
            op = KalmanOperator(A, B, K)
            for start in starts:
                f0 = op.objective(*start, Y1, Y2)
                for budget in (1, 5, 40):
                    step = solve_pqr_step(dyn, K, Y1, Y2, rho=1.0,
                                          max_iter=budget, init=start)
                    assert step.iterations == budget
                    assert step.objective <= f0

    def test_warm_call_is_finite_or_raises(self):
        # on finite input the warm step returns a finite point and dual or
        # raises LinAlgError, never warning, so the ADMM sweep's test on a
        # non-finite (P, Q, R) point fails no fit that would have finished.
        # Gains, offsets and starts span 1 to 1e300; 46 of the 96 calls
        # return and 50 raise.
        rng = np.random.default_rng(0)
        outcomes = []
        for dyn, cost, _ in (build_small_random(0), build_aircraft()):
            n, m = dyn.n, dyn.m
            K0 = solve_lqr(dyn, cost).K
            G1 = rng.standard_normal((n, n))
            G2 = rng.standard_normal((m, n))
            for k, s, t in itertools.product((1.0, 1e50, 1e100, 1e150),
                                             (1.0, 1e100, 1e200, 1e300),
                                             (1.0, 1e150, 1e300)):
                init = (t * np.eye(n), t * np.eye(n), t * np.eye(m))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        step = solve_pqr_step(dyn, k * K0, s * G1, s * G2,
                                              rho=1.0, max_iter=40,
                                              init=init)
                    except np.linalg.LinAlgError:
                        outcomes.append("raised")
                        continue
                assert all(np.isfinite(M).all() for M in
                           (step.P, step.Q, step.R, step.dual))
                outcomes.append("finite")
        assert set(outcomes) == {"finite", "raised"}

    def test_rejects_nonpositive_rho(self):
        dyn = _dyn(np.zeros((1, 1)), np.ones((1, 1)))
        with pytest.raises(ValueError):
            solve_pqr_step(dyn, np.zeros((1, 1)), np.zeros((1, 1)),
                           np.zeros((1, 1)), rho=0.0)

    @pytest.mark.parametrize("max_iter", [0, -1])
    @pytest.mark.parametrize("warm", [False, True])
    def test_rejects_max_iter_below_one(self, max_iter, warm):
        dyn = _dyn(np.zeros((1, 1)), np.ones((1, 1)))
        init = (np.eye(1), np.eye(1), np.eye(1)) if warm else None
        with pytest.raises(ValueError):
            solve_pqr_step(dyn, np.zeros((1, 1)), np.zeros((1, 1)),
                           np.zeros((1, 1)), rho=1.0, max_iter=max_iter,
                           init=init)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("bad, warm", [
        *[(name, warm) for name in ("K", "Y1", "Y2", "dual0")
          for warm in (False, True)],
        ("init P0", True), ("init Q0", True), ("init R0", True)])
    def test_rejects_non_finite_arguments(self, bad, warm, value,
                                          monkeypatch):
        # before any work: the call never builds the stacked systems
        dyn, cost, _ = build_small_random(0)
        n, m = dyn.n, dyn.m
        args = {"K": solve_lqr(dyn, cost).K, "Y1": np.zeros((n, n)),
                "Y2": np.zeros((m, n)), "init P0": np.eye(n),
                "init Q0": np.eye(n), "init R0": np.eye(m),
                "dual0": np.zeros(n * (n + 1) + m * (m + 1) // 2)}
        args[bad].flat[-1] = value

        def forbidden(*a, **kw):
            raise AssertionError("the call did work on a non-finite input")

        monkeypatch.setattr(conic_ls, "_stacked_systems", forbidden)
        init = ((args["init P0"], args["init Q0"], args["init R0"]) if warm
                else None)
        with pytest.raises(ValueError, match=f"^{bad} must be finite$"):
            solve_pqr_step(dyn, args["K"], args["Y1"], args["Y2"], rho=1.0,
                           max_iter=5, init=init, dual0=args["dual0"])

    @pytest.mark.parametrize("bad", ["Y1", "Y2"])
    @pytest.mark.parametrize("warm", [False, True])
    def test_rejects_overflowing_scaled_offsets(self, bad, warm, monkeypatch):
        # finite Y over a tiny rho overflows: the cold barrier would end
        # at objective inf and the warm loop in a LinAlgError; the call
        # rejects it before any work, without a RuntimeWarning
        dyn, cost, _ = build_small_random(0)
        n, m = dyn.n, dyn.m
        Y = {"Y1": np.zeros((n, n)), "Y2": np.zeros((m, n))}
        Y[bad] = 1e300 * np.ones_like(Y[bad])

        def forbidden(*a, **kw):
            raise AssertionError("the call did work on an overflowing input")

        monkeypatch.setattr(conic_ls, "_stacked_systems", forbidden)
        init = (np.eye(n), np.eye(n), np.eye(m)) if warm else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=f"^{bad} / rho must be finite$"):
                solve_pqr_step(dyn, solve_lqr(dyn, cost).K, Y["Y1"],
                               Y["Y2"], rho=1e-10, max_iter=5, init=init)

    @pytest.mark.parametrize("gains, bad, warm", [
        ("single", "Y1", False), ("single", "Y1", True),
        ("stack", "Y1", False), ("stack", "Y1", True),
        ("stack", "init R0", True), ("single", "dual0", True)])
    def test_rejects_arguments_off_the_gain_shape(self, gains, bad, warm):
        # a single gain with stacked-of-one offsets, and a stack of gains
        # with unstacked offsets, init or dual
        dyn, cost, _ = build_small_random(0)
        n, m = dyn.n, dyn.m
        K = solve_lqr(dyn, cost).K
        lead = () if gains == "single" else (2,)
        K = np.broadcast_to(K, lead + (m, n))
        Y1, Y2 = np.zeros(lead + (n, n)), np.zeros(lead + (m, n))
        P0, R0 = np.broadcast_to(np.eye(n), lead + (n, n)), np.eye(m)
        R0 = R0 if bad == "init R0" else np.broadcast_to(R0, lead + (m, m))
        dual0 = np.zeros(lead + (n * (n + 1) + m * (m + 1) // 2,))
        if bad == "Y1":
            Y1 = Y1[0] if lead else Y1[None]
        if bad == "dual0":
            dual0 = dual0[:-1]
        with pytest.raises(ValueError, match=bad):
            solve_pqr_step(dyn, K, Y1, Y2, rho=1.0, max_iter=5, dual0=dual0,
                           init=(P0, P0, R0) if warm else None)


class TestPolish:
    """The face polish of a padded stack against the one-member reference,
    array for array."""

    _FLOOR = np.array([0.0, 0.0, 1.0])[:, None]

    @classmethod
    def _padded(cls, P, Q, R):
        """The stacks P, Q and R as the splitting loop hands them to the
        polish: each block in its slot's bottom-right corner, the rest of
        the slot's diagonal at the block's floor."""
        k = max(P.shape[-1], R.shape[-1])
        X = np.broadcast_to(cls._FLOOR[..., None] * np.eye(k),
                            (len(P), 3, k, k)).copy()
        for b, M in enumerate((P, Q, R)):
            s = M.shape[-1]
            X[:, b, k - s:, k - s:] = M
        return X

    @staticmethod
    def _blocks(op, X):
        return conic_ls._svec(op.n, op.n, op.m).blocks(X)

    @classmethod
    def _assert_matches_reference(cls, op, T1, T2, f, X, floor, count):
        """The stack's result, and the face least squares (``lstsq``
        calls, counted in ``count``) of the stack and of the reference."""
        start = count[0]
        got = conic_ls._polish(op, T1, T2, f, X, floor)
        stack = count[0] - start
        assert all(len(x) == len(f) for x in got)
        # the pad is left at the floor
        assert np.array_equal(got[1], cls._padded(*cls._blocks(op, got[1])))
        P, Q, R = cls._blocks(op, X)
        for i, (t1, t2) in enumerate(zip(T1, T2)):
            ref = polish_reference(op.take(i), t1, t2,
                                   (f[i], P[i], Q[i], R[i]))
            assert got[0][i] == ref[0]
            for x, y in zip(cls._blocks(op, got[1][i]), ref[1:]):
                assert np.array_equal(x, y)
        return got, stack, count[0] - start - stack

    @staticmethod
    def _signature(P, Q, R):
        """The face sizes of (P, Q, R) at the face tolerance."""
        return tuple(len(_face_basis(*np.linalg.eigh(M), floor, 1e-5))
                     for M, floor in zip((P, Q, R), (0.0, 0.0, 1.0)))

    @staticmethod
    def _counting_lstsq(monkeypatch):
        count = [0]
        lstsq = np.linalg.lstsq

        def counted(*args, **kwargs):
            count[0] += 1
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        return count

    def test_warm_calls_match_reference(self, monkeypatch):
        # the polish calls of three sweeps of two-problem batches on
        # small_random and the 747, four members each
        calls = []
        polish = conic_ls._polish

        def record(op, T1, T2, f, X, floor):
            calls.append((op, T1.copy(), T2.copy(), f.copy(), X.copy(),
                          floor.copy()))
            return polish(op, T1, T2, f, X, floor)

        monkeypatch.setattr(conic_ls, "_polish", record)
        for (dyn, cost, sigma), Ns in ((build_small_random(0), (1, 5)),
                                       (build_aircraft(), (1, 3))):
            K = solve_lqr(dyn, cost).K
            fit_kalman_batch([(generate_demos(dyn, K, sigma, N, 0.0, N), dyn)
                              for N in Ns], QUAD, RegularizerSpec(),
                             AdmmConfig(n_iter=3))
        monkeypatch.setattr(conic_ls, "_polish", polish)
        assert len(calls) == 6
        assert all(len(f) == 4 for _, _, _, f, _, _ in calls)
        assert all(np.array_equal(floor, self._FLOOR)
                   for *_, floor in calls)
        count = self._counting_lstsq(monkeypatch)
        solves = np.sum([self._assert_matches_reference(*call, count)[1:]
                         for call in calls], axis=0)
        # the stack and the reference each solve once per member
        assert solves.tolist() == [6 * 4, 6 * 4]
        for op, _, _, _, X, _ in calls:
            blocks = self._blocks(op, X)
            assert len({self._signature(*(M[i] for M in blocks))
                        for i in range(4)}) > 1

    def test_edge_faces_match_reference(self, monkeypatch):
        count = self._counting_lstsq(monkeypatch)
        # (3, 2) pads R, (2, 3) pads P and Q
        for n, m in ((3, 2), (2, 3)):
            self._assert_edge_faces(count, n, m)

    def _assert_edge_faces(self, count, n, m):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((n, n))
        A *= 0.9 / np.abs(np.linalg.eigvals(A)).max()
        B = rng.standard_normal((n, m))

        def low_rank(size, rank):
            G = rng.standard_normal((size, rank))
            return G @ G.T

        def nudged(M, floor):
            # the eigenvalues above the floor moved, the face kept
            w, V = np.linalg.eigh(M)
            w = np.where(w - floor > 1e-8,
                         w * (1.0 + 0.05 * rng.standard_normal(len(w))), w)
            return (V * w) @ V.T

        # K = 0 (zero R-block columns); Q = 0 (an empty Q face); a member
        # whose offsets put the face's least squares point outside the
        # cones, so that its correction is rejected
        gains = [np.zeros((m, n)), 0.3 * rng.standard_normal((m, n)),
                 0.3 * rng.standard_normal((m, n))]
        targets = [
            (low_rank(n, 2), low_rank(n, 1), np.eye(m) + low_rank(m, 1)),
            (low_rank(n, n), np.zeros((n, n)), np.eye(m) + low_rank(m, m)),
            (low_rank(n, 1), low_rank(n, 2), np.eye(m))]
        stacked = KalmanOperator(np.stack([A] * 3), np.stack([B] * 3),
                                 np.stack(gains))
        ops = [stacked.take(i) for i in range(3)]
        T1, T2 = [], []
        for op, target in zip(ops, targets):
            M1, M2 = op.apply(*target)
            T1.append(1e-3 * rng.standard_normal((n, n)) - M1)
            T2.append(1e-3 * rng.standard_normal((m, n)) - M2)
        T1[2], T2[2] = rng.standard_normal((n, n)), rng.standard_normal((m, n))
        T1, T2 = np.array(T1), np.array(T2)
        points = [[nudged(M, floor) for M, floor
                   in zip(target, (0.0, 0.0, 1.0))] for target in targets]
        f = np.array([op.objective(*X, t1, t2)
                      for op, X, t1, t2 in zip(ops, points, T1, T2)])
        X = self._padded(*map(np.array, zip(*points)))
        assert len({self._signature(*Y) for Y in points}) == 3
        got, stack, reference = self._assert_matches_reference(
            stacked, T1, T2, f, X, self._FLOOR, count)
        # one solve per member, in the stack and in the reference
        assert (stack, reference) == (3, 3)
        assert got[0][0] < f[0] and got[0][1] < f[1]
        assert got[0][2] == f[2]
        assert np.array_equal(got[1][2], X[2])


class TestRawLapackPath:
    """The warm step calls LAPACK's gufuncs under one error state per
    call, never numpy.linalg's eigh or eigvalsh."""

    @staticmethod
    def _problem(bad=None, value=np.nan):
        """The arguments of a warm call on a two-member small_random
        stack; ``bad`` ("P0" or "Y1") sets member 1's entries to
        ``value``."""
        dyn, cost, _ = build_small_random(0)
        n, m = dyn.n, dyn.m
        K = np.stack([solve_lqr(dyn, cost).K, np.zeros((m, n))])
        Y1 = np.zeros((2, n, n))
        init = (np.stack([np.eye(n)] * 2), np.stack([np.eye(n)] * 2),
                np.stack([np.eye(m)] * 2))
        if bad == "P0":
            init[0][1] = value
        elif bad == "Y1":
            Y1[1] = value
        return dyn, K, Y1, np.zeros((2, m, n)), init

    @staticmethod
    def _warm_call(dyn, K, Y1, Y2, init):
        return solve_pqr_step(dyn, K, Y1, Y2, rho=1.0, max_iter=30,
                              init=init)

    def test_warm_call_never_calls_np_linalg_eigh(self, monkeypatch):
        problem = self._problem()
        expected = self._warm_call(*problem)
        projections = [0]
        project = conic_ls._project

        def counted(S, floor):
            projections[0] += 1
            return project(S, floor)

        def forbidden(*args, **kwargs):
            raise AssertionError("the warm step called numpy.linalg")

        monkeypatch.setattr(conic_ls, "_project", counted)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        got = self._warm_call(*problem)
        assert projections[0] > 0  # the polish accepted a member
        for field in ("P", "Q", "R", "objective", "dual"):
            assert np.array_equal(getattr(got, field),
                                  getattr(expected, field)), field

    # small_random (n = 4, m = 2) pads R; n = 1, m = 2 pads P and Q
    @pytest.mark.parametrize("system", ["small_random", "one-state"])
    def test_one_decomposition_per_iteration_and_polish(self, monkeypatch,
                                                        system):
        if system == "small_random":
            problem = self._problem()
        else:
            dyn = _dyn(np.array([[0.9]]), np.array([[1.0, 0.5]]))
            K = np.stack([solve_lqr(dyn, (np.eye(1), np.eye(2))).K,
                          np.zeros((2, 1))])
            problem = (dyn, K, np.zeros((2, 1, 1)), np.zeros((2, 2, 1)),
                       (np.stack([np.eye(1)] * 2), np.stack([np.eye(1)] * 2),
                        np.stack([np.eye(2)] * 2)))
        dyn = problem[0]
        k = max(dyn.n, dyn.m)
        calls = []
        lapack = conic_ls._LAPACK

        class Counting:
            def __getattr__(self, name):
                routine = getattr(lapack, name)

                def counted(a, *args, **kwargs):
                    calls.append((name, a.shape))
                    return routine(a, *args, **kwargs)

                return counted

        monkeypatch.setattr(conic_ls, "_LAPACK", Counting())
        solve_pqr_step(dyn, *problem[1:4], rho=1.0, max_iter=40,
                       init=problem[4])
        eighs = [shape for name, shape in calls if name == "eigh_lo"]
        # the 40 iterations and the polish on (2, 3, k, k), plus at most
        # the projection of the members the polish accepts
        assert eighs[:41] == [(2, 3, k, k)] * 41
        assert len(eighs) <= 42
        assert all(shape[1:] == (3, k, k) for shape in eighs[41:])
        assert [c for c in calls if c[0] != "eigh_lo"] == [
            ("eigvalsh_lo", (2, 3, k, k))]

    @pytest.mark.parametrize("bad", [None, "P0", "Y1"])
    def test_error_state_is_restored(self, bad):
        # finite entries so large that the splitting loop overflows and
        # then fails inside its error state
        problem = self._problem(bad, 1e308)

        def errcall(err, flag):
            pass

        with np.errstate(all="warn", under="raise", call=errcall):
            before = np.geterr(), np.geterrcall()
            try:
                self._warm_call(*problem)
            except np.linalg.LinAlgError:
                assert bad is not None
            assert (np.geterr(), np.geterrcall()) == before

    @pytest.mark.parametrize("bad", ["P0", "Y1"])
    def test_non_finite_input_raises_value_error(self, bad, monkeypatch):
        # rejected before the splitting loop, which never sees it
        problem = self._problem(bad)
        monkeypatch.setattr(conic_ls, "_LAPACK", None)
        name = "init P0" if bad == "P0" else "Y1"
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            self._warm_call(*problem)


class TestWarmStepOracle:
    """Every field of a warm call against ``warm_step_reference``, the
    splitting loop and polish on per-member tuples, array for array."""

    @staticmethod
    def _assert_equal(got, ref, i=None):
        """Result ``got`` (member i of a stack, or a single call) equals
        the reference's member tuple ``ref`` bit for bit."""
        (f, P, Q, R), iterations, dual = ref
        pick = (lambda x: x) if i is None else (lambda x: x[i])
        assert got.iterations == iterations
        assert type(got.iterations) is int
        # a warm call runs no gap test
        for field, want in (("objective", f), ("P", P), ("Q", Q), ("R", R),
                            ("converged", False), ("gap", math.inf),
                            ("dual", dual)):
            assert np.array_equal(pick(getattr(got, field)), want), field

    # m > n at (1, 2), (1, 3), (1, 4), (2, 3), (2, 4) and (3, 4), where the
    # padded projection pads P and Q as well
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_stacks_equal_reference_bit_for_bit(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        p = n * (n + 1) + m * (m + 1) // 2

        def system():
            A = rng.standard_normal((n, n))
            A *= rng.uniform(0.5, 1.2) / np.abs(np.linalg.eigvals(A)).max()
            return _dyn(A, rng.standard_normal((n, m)))

        def psd(k, rank):
            G = rng.standard_normal((k, rank))
            return G @ G.T

        for S in range(1, 6):
            shared = S % 2 == 0
            systems = [system()] * S if shared else [system()
                                                     for _ in range(S)]
            K = 0.5 * rng.standard_normal((S, m, n))
            K[0] = 0.0
            Y1 = rng.standard_normal((S, n, n))
            Y2 = rng.standard_normal((S, m, n))
            P0 = np.array([psd(n, rng.integers(1, n + 1)) for _ in range(S)])
            Q0 = np.array([psd(n, rng.integers(0, n + 1)) for _ in range(S)])
            R0 = np.array([np.eye(m) + psd(m, rng.integers(0, m + 1))
                           for _ in range(S)])
            # a non-symmetric start for the last member
            P0[-1] += 1e-3 * rng.standard_normal((n, n))
            dual0 = None if S % 3 == 1 else rng.standard_normal((S, p))
            dyn = systems[0] if shared else systems
            for max_iter in (1, 40):
                init, dual = (P0, Q0, R0), dual0
                # three chained calls, each from the last one's result
                for _ in range(3):
                    ref = warm_step_reference(systems, K, Y1, Y2, 2.0,
                                              max_iter, init, dual)
                    got = solve_pqr_step(dyn, K, Y1, Y2, rho=2.0,
                                         max_iter=max_iter, init=init,
                                         dual0=dual)
                    for i in range(S):
                        self._assert_equal(got, ref[i], i)
                    one = solve_pqr_step(systems[0], K[0], Y1[0], Y2[0],
                                         rho=2.0, max_iter=max_iter,
                                         init=[M[0] for M in init],
                                         dual0=None if dual is None
                                         else dual[0])
                    self._assert_equal(one, ref[0])
                    init, dual = (got.P, got.Q, got.R), got.dual

    @pytest.mark.parametrize("max_iter", [2.5, True, np.float64(3.0), "4"])
    def test_max_iter_must_be_an_integer(self, max_iter):
        dyn = _dyn(np.zeros((1, 1)), np.ones((1, 1)))
        with pytest.raises(ValueError, match="max_iter"):
            solve_pqr_step(dyn, np.zeros((1, 1)), np.zeros((1, 1)),
                           np.zeros((1, 1)), rho=1.0, max_iter=max_iter,
                           init=(np.eye(1), np.eye(1), np.eye(1)))

    def test_max_iter_accepts_numpy_integers(self):
        dyn = _dyn(np.zeros((1, 1)), np.ones((1, 1)))
        step = solve_pqr_step(dyn, np.zeros((1, 1)), np.zeros((1, 1)),
                              np.zeros((1, 1)), rho=1.0,
                              max_iter=np.int64(3),
                              init=(np.eye(1), np.eye(1), np.eye(1)))
        assert step.iterations == 3 and type(step.iterations) is int
