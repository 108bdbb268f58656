import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from lqfit import conic_ls, riccati
from lqfit.conic_ls import (KalmanOperator, LossSpec, RegularizerSpec,
                            project_psd)
from lqfit.fitting import fit_objective, policy_fit
from lqfit.kalman_fit import (AdmmConfig, AdmmState, admm_iterate, fit_kalman,
                              fit_kalman_batch, identity_state, zero_state)
from lqfit.linsys import DemoSet, LinearDynamics, generate_demos, spectral_radius
from lqfit.riccati import (ConvergenceError, KalmanCertificate,
                           kalman_residual, solve_lqr)

from _oracles import random_controllable

QUAD = LossSpec("quadratic")
RIDGE = RegularizerSpec("ridge", 0.01)


def _dyn(A, B, w=0.0):
    n = A.shape[0]
    return LinearDynamics(A=A, B=B, W=w * np.eye(n))


@pytest.fixture(scope="module")
def small_system():
    from lqfit.bench import build_small_random
    dyn, cost, sigma = build_small_random(3)
    Kstar = solve_lqr(dyn, cost).K
    return dyn, cost, sigma, Kstar


class TestAdmmIterate:
    def test_exact_solution_is_fixed_point(self):
        rng = np.random.default_rng(0)
        A, B = random_controllable(rng, n_max=4, m_max=2)
        n, m = A.shape[0], B.shape[1]
        dyn = _dyn(A, B)
        sol = solve_lqr(dyn, (np.eye(n), np.eye(m)))
        X = rng.standard_normal((3 * n, n))
        demos = DemoSet(states=X, inputs=X @ sol.K.T)
        state = AdmmState(K=sol.K, P=sol.P, Q=np.eye(n), R=np.eye(m),
                          Y1=np.zeros((n, n)), Y2=np.zeros((m, n)))
        new = admm_iterate(state, demos, QUAD, RegularizerSpec("ridge", 0.0),
                           dyn, rho=1.0)
        assert np.linalg.norm(new.K - sol.K) <= 1e-8
        assert np.linalg.norm(new.P - sol.P) <= 1e-6 * (1 + np.linalg.norm(sol.P))
        assert np.linalg.norm(new.Q - np.eye(n)) <= 1e-6
        assert np.linalg.norm(new.R - np.eye(m)) <= 1e-6
        # constraint residual is zero there, so the dual must not move
        assert np.linalg.norm(new.Y1) <= 1e-8
        assert np.linalg.norm(new.Y2) <= 1e-8
        assert new.iter == 1
        # algebraic restatement of the zero second block at a fixed point
        lhs = (new.R + B.T @ new.P @ B) @ new.K
        assert np.linalg.norm(lhs + B.T @ new.P @ A) <= 1e-6

    def test_first_iterate_cone_feasible(self, small_system):
        dyn, cost, sigma, Kstar = small_system
        demos = generate_demos(dyn, Kstar, sigma, 3, 0.0, 17)
        new = admm_iterate(zero_state(dyn), demos, QUAD, RIDGE, dyn, rho=1.0)
        assert np.linalg.eigvalsh(new.P).min() >= -1e-8
        assert np.linalg.eigvalsh(new.Q).min() >= -1e-8
        assert np.linalg.eigvalsh(new.R).min() >= 1.0 - 1e-8
        assert new.Y1.shape == (4, 4) and new.Y2.shape == (2, 4)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["pqr_dual", "Y1", "Y2", "P", "R"])
    def test_non_finite_iterate_fails_the_subsolver(self, small_system,
                                                    field, value):
        # never a ValueError from the (P, Q, R) step: the sweep reports a
        # subsolver failure, which _run_lockstep confines to its problem;
        # every field but the splitting dual makes the K-step gain
        # non-finite
        dyn, cost, sigma, Kstar = small_system
        demos = generate_demos(dyn, Kstar, sigma, 3, 0.0, 17)
        state = admm_iterate(zero_state(dyn), demos, QUAD, RIDGE, dyn,
                             rho=1.0)
        bad = getattr(state, field).copy()
        bad.flat[0] = value
        reason = ("the \\(P, Q, R\\) step's dual is not finite"
                  if field == "pqr_dual"
                  else "the K step returned a non-finite gain")
        # the K step's arithmetic on it warns before the gain is tested
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match=(
                f"^subsolver failed at iteration 2: {reason}$")):
            admm_iterate(replace(state, **{field: bad}), demos, QUAD, RIDGE,
                         dyn, rho=1.0)

    def test_overflowing_scaled_dual_fails_the_k_step(self):
        # Y1 / rho overflows, which the (P, Q, R) step rejects with a
        # ValueError; the K step reads Y / rho first and fails the sweep
        from lqfit.bench import build_small_random
        dyn, cost, sigma = build_small_random(0)
        demos = generate_demos(dyn, solve_lqr(dyn, cost).K, sigma, 3, 0.0,
                               17)
        state = replace(identity_state(dyn), Y1=1e300 * np.ones((4, 4)))
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match=(
                "^subsolver failed at iteration 1: the K step returned a "
                "non-finite gain$")):
            admm_iterate(state, demos, QUAD, RIDGE, dyn, rho=1e-10)

    def test_k_step_ignores_incoming_gain(self, small_system):
        # fit_kalman has no restarts in K because of this; a proximal K
        # term would break it, and then the starts need revisiting
        dyn, cost, sigma, Kstar = small_system
        demos = generate_demos(dyn, Kstar, sigma, 3, 0.0, 19)
        K0 = np.random.default_rng(3).standard_normal((2, 2, 4))
        starts = (zero_state(dyn), identity_state(dyn))
        pairs = [(s, replace(s, K=k)) for s, k in zip(starts, K0)]
        pairs.append(tuple(
            AdmmState(**{f: np.stack([getattr(s, f) for s in states])
                         for f in ("K", "P", "Q", "R", "Y1", "Y2")})
            for states in zip(*pairs)))
        for a, b in pairs:
            new_a = admm_iterate(a, demos, QUAD, RIDGE, dyn, rho=1.0)
            new_b = admm_iterate(b, demos, QUAD, RIDGE, dyn, rho=1.0)
            for f in ("K", "P", "Q", "R", "Y1", "Y2", "pqr_dual"):
                assert np.array_equal(getattr(new_a, f), getattr(new_b, f)), f


    def test_demo_terms_once_per_problem(self, monkeypatch, small_system):
        # the K step's demo-only terms are computed once per DemoSet and
        # read by every sweep of every start
        dyn, cost, sigma, Kstar = small_system
        made = []
        demo_terms = conic_ls.demo_terms

        def counted(demos):
            made.append(demos)
            return demo_terms(demos)

        monkeypatch.setattr(conic_ls, "demo_terms", counted)
        problems = [(generate_demos(dyn, Kstar, sigma, N, 0.0, N), dyn)
                    for N in (2, 3, 5)]
        reports = fit_kalman_batch(problems, QUAD, RIDGE,
                                   AdmmConfig(n_iter=10))
        assert all(r.iterations == 10 for r in reports)
        assert sorted(map(id, made)) == sorted(id(d) for d, _ in problems)


class TestFitKalman:
    def test_zero_data_zero_solution(self):
        rng = np.random.default_rng(1)
        A, B = random_controllable(rng, n_max=3, m_max=2)
        dyn = _dyn(A, B)
        demos = DemoSet(states=np.zeros((3, A.shape[0])),
                        inputs=np.zeros((3, B.shape[1])))
        report = fit_kalman(demos, QUAD, RIDGE, dyn,
                            AdmmConfig(n_iter=30))
        assert report.certificate.residual <= 1e-6
        assert report.objective <= 1e-12
        assert report.init_index == 0
        assert np.allclose(report.K, 0.0, atol=1e-8)
        assert report.converged

    def test_noiseless_recovery(self, small_system):
        dyn, cost, sigma, Kstar = small_system
        demos = generate_demos(dyn, Kstar, np.zeros((2, 2)), 50, 0.0, 5)
        report = fit_kalman(demos, QUAD, RIDGE, dyn,
                            AdmmConfig(n_iter=120))
        assert np.linalg.norm(report.K - Kstar) <= 1e-2
        assert report.certificate.residual <= 1e-3
        assert spectral_radius(dyn.closed_loop(report.K_certified)) < 1.0

    def test_certified_gain_exactly_optimal(self, small_system):
        dyn, cost, sigma, Kstar = small_system
        demos = generate_demos(dyn, Kstar, sigma, 5, 0.0, 11)
        report = fit_kalman(demos, QUAD, RIDGE, dyn,
                            AdmmConfig(n_iter=40))
        resolved = solve_lqr(dyn, (report.certificate.Q, report.certificate.R))
        cert = KalmanCertificate(P=resolved.P, Q=report.certificate.Q,
                                 R=report.certificate.R, residual=0.0)
        assert kalman_residual(dyn, resolved.K, cert) <= 1e-8
        assert np.allclose(resolved.K, report.K_certified)

    def test_deterministic(self, small_system):
        dyn, cost, sigma, Kstar = small_system
        demos = generate_demos(dyn, Kstar, sigma, 4, 0.0, 23)
        cfg = AdmmConfig(n_iter=15)
        r1 = fit_kalman(demos, QUAD, RIDGE, dyn, cfg)
        r2 = fit_kalman(demos, QUAD, RIDGE, dyn, cfg)
        assert np.array_equal(r1.K, r2.K)
        assert np.array_equal(r1.certificate.P, r2.certificate.P)
        assert r1.objective == r2.objective
        assert r1.init_index == r2.init_index
        assert r1.iterations == r2.iterations

    def test_multistart_selects_minimum(self, small_system):
        dyn, cost, sigma, Kstar = small_system
        demos = generate_demos(dyn, Kstar, sigma, 4, 0.0, 29)
        cfg = AdmmConfig(n_iter=15)
        report = fit_kalman(demos, QUAD, RIDGE, dyn, cfg)
        # replay each start manually and collect final objectives
        objectives = []
        for idx, state in enumerate((zero_state(dyn), identity_state(dyn))):
            for _ in range(cfg.n_iter):
                new = admm_iterate(state, demos, QUAD, RIDGE, dyn, cfg.rho)
                delta = np.linalg.norm(new.K - state.K)
                state = new
                if delta < cfg.eps:
                    break
            objectives.append(fit_objective(demos, state.K, QUAD, RIDGE))
        assert report.objective == pytest.approx(min(objectives), abs=1e-12)
        assert report.init_index == int(np.argmin(objectives))

    def test_lockstep_equals_starts_run_alone(self, small_system):
        dyn, cost, sigma, Kstar = small_system
        demos = generate_demos(dyn, Kstar, sigma, 4, 0.0, 29)
        # the zero start meets eps at sweep 15, the identity one hits the cap
        cfg = AdmmConfig(n_iter=25, eps=1.3e-3)
        report = fit_kalman(demos, QUAD, RIDGE, dyn, cfg)
        runs = []
        for idx, state in enumerate((zero_state(dyn), identity_state(dyn))):
            for _ in range(cfg.n_iter):
                new = admm_iterate(state, demos, QUAD, RIDGE, dyn, cfg.rho)
                delta = np.linalg.norm(new.K - state.K, "fro")
                state = new
                if delta < cfg.eps:
                    break
            runs.append((fit_objective(demos, state.K, QUAD, RIDGE), idx,
                         state))
        stops = [state.iter for _, _, state in runs]
        assert min(stops) < cfg.n_iter == max(stops)
        objective, idx, final = min(runs, key=lambda r: (r[0], r[1]))
        assert report.init_index == idx
        assert report.iterations == final.iter
        assert report.objective == objective
        assert np.array_equal(report.K, final.K)
        for name, floor in (("P", 0.0), ("Q", 0.0), ("R", 1.0)):
            assert np.array_equal(getattr(report.certificate, name),
                                  project_psd(getattr(final, name), floor))

    def test_objective_dominates_plain_fit(self, small_system):
        dyn, cost, sigma, Kstar = small_system
        demos = generate_demos(dyn, Kstar, sigma, 6, 0.0, 31)
        pf = policy_fit(demos, QUAD, RIDGE)
        report = fit_kalman(demos, QUAD, RIDGE, dyn,
                            AdmmConfig(n_iter=40))
        assert pf.objective <= report.objective + 1e-8

    def test_report_serializes(self, small_system):
        import json

        dyn, cost, sigma, Kstar = small_system
        demos = generate_demos(dyn, Kstar, sigma, 3, 0.0, 37)
        report = fit_kalman(demos, QUAD, RIDGE, dyn,
                            AdmmConfig(n_iter=10))
        payload = json.loads(json.dumps(report.to_dict()))
        # the order ``lqfit fit-kalman`` prints them in
        assert list(report.to_dict()) == [
            "K", "K_certified", "P", "Q", "R", "residual", "objective",
            "converged", "iterations", "init_index", "K_reported"]
        assert payload == dict(payload, **json.loads(json.dumps(
            report.certificate.to_dict())))

    def test_reported_gain_is_certified_unless_the_resolve_fails(
            self, small_system, monkeypatch):
        dyn, cost, sigma, Kstar = small_system
        demos = generate_demos(dyn, Kstar, sigma, 3, 0.0, 37)
        cfg = AdmmConfig(n_iter=10)
        report = fit_kalman(demos, QUAD, RIDGE, dyn, cfg)
        assert report.K_certified is not None
        assert report.K_reported is report.K_certified

        def fail(*args, **kwargs):
            raise ConvergenceError("injected", math.inf)
        monkeypatch.setattr(riccati, "solve_lqr", fail)
        failed = fit_kalman(demos, QUAD, RIDGE, dyn, cfg)
        assert failed.K_certified is None
        assert np.array_equal(failed.K, report.K)
        assert failed.K_reported is failed.K
        assert failed.to_dict()["K_reported"] == report.K.tolist()

    def test_failed_resolve_is_logged(self, small_system, monkeypatch,
                                      caplog):
        dyn, cost, sigma, Kstar = small_system
        demos = generate_demos(dyn, Kstar, sigma, 3, 0.0, 37)
        cfg = AdmmConfig(n_iter=10)
        with caplog.at_level(logging.INFO, logger="lqfit"):
            fit_kalman(demos, QUAD, RIDGE, dyn, cfg)
        assert "certified re-solve failed" not in caplog.text

        def fail(*args, **kwargs):
            raise ConvergenceError("injected", math.inf)
        monkeypatch.setattr(riccati, "solve_lqr", fail)
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="lqfit"):
            failed = fit_kalman(demos, QUAD, RIDGE, dyn, cfg)
        record, = [r for r in caplog.records
                   if "certified re-solve failed" in r.getMessage()]
        assert record.name == "lqfit" and record.levelno == logging.INFO
        assert record.getMessage() == (
            f"certified re-solve failed at certificate residual "
            f"{failed.certificate.residual:.3e}: injected (residual inf)")

    def test_residual_matches_certificate(self, small_system):
        dyn, cost, sigma, Kstar = small_system
        demos = generate_demos(dyn, Kstar, sigma, 4, 0.0, 41)
        report = fit_kalman(demos, QUAD, RIDGE, dyn,
                            AdmmConfig(n_iter=20))
        recomputed = np.sqrt(KalmanOperator(dyn.A, dyn.B, report.K).objective(
            report.certificate.P, report.certificate.Q, report.certificate.R))
        assert recomputed == pytest.approx(report.certificate.residual,
                                           rel=1e-6, abs=1e-9)


class TestFitKalmanBatch:
    @staticmethod
    def _problems():
        from lqfit.bench import build_small_random
        problems = []
        for seed in (0, 1):
            dyn, cost, sigma = build_small_random(seed)
            Kstar = solve_lqr(dyn, cost).K
            for N in (1, 5):
                problems.append((generate_demos(
                    dyn, Kstar, sigma, N, 0.0,
                    np.random.SeedSequence((seed, N, 1))), dyn))
        return problems

    def test_batch_equals_fits_alone(self):
        # two systems at N = 1 and 5; six of the eight starts meet eps and
        # leave the batch at sweeps 12 to 27, two hit the cap; the reports
        # come from starts that stopped at 15 and 27 and two capped ones
        cfg = AdmmConfig(n_iter=30, eps=3e-3)
        problems = self._problems()
        reports = fit_kalman_batch(problems, QUAD, RIDGE, cfg)
        alone = [fit_kalman(demos, QUAD, RIDGE, dyn, cfg)
                 for demos, dyn in problems]
        assert [r.converged for r in alone] == [False, True, True, False]
        assert len(reports) == len(problems)
        for batched, single in zip(reports, alone):
            assert repr(batched.to_dict()) == repr(single.to_dict())

    @pytest.mark.parametrize("fault, message", [
        ("raise", "injected"),
        ("nan", "the (P, Q, R) step returned a non-finite point")],
        ids=["raise", "nan"])
    def test_failure_in_the_first_sweep(self, monkeypatch, fault, message):
        # problem 1's (P, Q, R) step raises, or returns NaN in P, on every
        # call: the first sweep of the fresh batch (no splitting dual yet)
        # raises, and the batch is halved twice, into problem 0 and then
        # problems 1 and 2
        from lqfit.bench import build_small_random
        cfg = AdmmConfig(n_iter=30, eps=3e-3)
        problems = []
        for seed in (0, 1, 2):
            dyn, cost, sigma = build_small_random(seed)
            problems.append((generate_demos(
                dyn, solve_lqr(dyn, cost).K, sigma, 2, 0.0,
                np.random.SeedSequence((seed, 2, 1))), dyn))
        alone = [fit_kalman(demos, QUAD, RIDGE, dyn, cfg)
                 for demos, dyn in problems]
        A1 = problems[1][1].A
        solve_pqr_step = conic_ls.solve_pqr_step

        def failing(dyn, *args, **kwargs):
            hit = [np.array_equal(d.A, A1) for d in dyn]
            if any(hit) and fault == "raise":
                raise np.linalg.LinAlgError("injected")
            step = solve_pqr_step(dyn, *args, **kwargs)
            if any(hit):
                P = step.P.copy()
                P[hit] = np.nan
                step = replace(step, P=P)
            return step

        monkeypatch.setattr(conic_ls, "solve_pqr_step", failing)
        reports = fit_kalman_batch(problems, QUAD, RIDGE, cfg)
        assert isinstance(reports[1], RuntimeError)
        assert str(reports[1]) == f"subsolver failed at iteration 1: {message}"
        for p in (0, 2):
            assert repr(reports[p].to_dict()) == repr(alone[p].to_dict())

    def test_mixed_sizes_rejected(self):
        demos, dyn = self._problems()[0]
        other = _dyn(0.5 * np.eye(3), np.ones((3, 1)))
        pair = DemoSet(states=np.ones((2, 3)), inputs=np.ones((2, 1)))
        with pytest.raises(ValueError):
            fit_kalman_batch([(demos, dyn), (pair, other)], QUAD, RIDGE)

    def test_demo_sizes_checked(self):
        problems = self._problems()
        demos, dyn = problems[1]
        wide = DemoSet(states=np.ones((2, 5)), inputs=np.ones((2, 2)))
        with pytest.raises(ValueError, match=r"problem 2: .*\(2, 5\).*"
                           r"\(n, m\) = \(4, 2\)"):
            fit_kalman_batch([problems[0], (demos, dyn), (wide, dyn)],
                             QUAD, RIDGE)
        tall = DemoSet(states=np.ones((2, 4)), inputs=np.ones((2, 3)))
        with pytest.raises(ValueError, match=r"problem 0: .*\(2, 3\)"):
            fit_kalman(tall, QUAD, RIDGE, dyn)

    def test_empty_batch(self):
        assert fit_kalman_batch([], QUAD, RIDGE) == []


class TestWholeBatchFails:
    """Every start of the batch leaves in one sweep: the documented
    RuntimeError, not an error of the bookkeeping around it."""

    @staticmethod
    def _failing_call(monkeypatch, name, calls, fail):
        """``conic_ls.<name>`` whose ``calls``-th call returns ``fail`` of
        its result (or raises what ``fail`` raises)."""
        fn = getattr(conic_ls, name)
        count = [0]

        def wrapper(*args, **kwargs):
            count[0] += 1
            out = fn(*args, **kwargs)
            return fail(out) if count[0] == calls else out

        monkeypatch.setattr(conic_ls, name, wrapper)

    def test_subsolver_failure_of_the_only_problem(self, monkeypatch,
                                                   small_system):
        dyn, cost, sigma, Kstar = small_system
        demos = generate_demos(dyn, Kstar, sigma, 3, 0.0, 23)

        def fail(out):
            raise np.linalg.LinAlgError("injected")

        self._failing_call(monkeypatch, "solve_pqr_step", 3, fail)
        with pytest.raises(RuntimeError,
                           match="subsolver failed at iteration 3: injected"):
            fit_kalman(demos, QUAD, RIDGE, dyn)

    def test_every_start_non_finite(self, monkeypatch, small_system):
        dyn, cost, sigma, Kstar = small_system
        demos = generate_demos(dyn, Kstar, sigma, 3, 0.0, 23)
        self._failing_call(monkeypatch, "solve_pqr_step", 2, lambda step:
                           replace(step, P=np.full_like(step.P, np.nan)))
        with pytest.raises(RuntimeError, match="subsolver failed at "
                           "iteration 2: the \\(P, Q, R\\) step returned a "
                           "non-finite point"):
            fit_kalman(demos, QUAD, RIDGE, dyn)

    def test_one_start_non_finite_fails_its_problem(self, monkeypatch,
                                                    small_system):
        # the other start is finite, but a non-finite (P, Q, R) point is a
        # subsolver failure, which fails the problem as a raised one does
        dyn, cost, sigma, Kstar = small_system
        demos = generate_demos(dyn, Kstar, sigma, 3, 0.0, 23)

        def nan_in_member_0(step):
            P = step.P.copy()
            P[0] = np.nan
            return replace(step, P=P)

        self._failing_call(monkeypatch, "solve_pqr_step", 2, nan_in_member_0)
        with pytest.raises(RuntimeError, match="^subsolver failed at "
                           "iteration 2: the \\(P, Q, R\\) step returned "
                           "a non-finite point$"):
            fit_kalman(demos, QUAD, RIDGE, dyn)

    def test_overflowing_demonstrations(self, capfd):
        # the non-finite K-step gain is caught before the (P, Q, R) step,
        # whose LAPACK calls would print to the process's stderr
        dyn = _dyn(np.array([[1.0, 0.2], [0.0, 0.9]]),
                   np.array([[0.0], [1.0]]))
        demos = DemoSet(states=[[1e308, 1.0], [0.5, 1.0]],
                        inputs=[[1.0], [0.2]])
        message = ("subsolver failed at iteration 1: the K step returned a "
                   "non-finite gain")
        with np.errstate(all="ignore"):
            with pytest.raises(RuntimeError, match=message):
                fit_kalman(demos, QUAD, RIDGE, dyn)
            reports = fit_kalman_batch([(demos, dyn)] * 2, QUAD, RIDGE)
        assert all(isinstance(r, RuntimeError) and str(r) == message
                   for r in reports)
        assert "DLASCL" not in capfd.readouterr().err
