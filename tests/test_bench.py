import json
import math
import sys

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from lqfit import bench, conic_ls, riccati
from lqfit.bench import (CSV_HEADER, ExperimentConfig, build_aircraft,
                         build_small_random, config_from_dict, default_config,
                         run_cell, run_experiment, write_csv)
from lqfit.conic_ls import LossSpec
from lqfit.kalman_fit import AdmmConfig
from lqfit.linsys import closed_loop_cost, generate_demos, spectral_radius
from lqfit.riccati import ConvergenceError, solve_lqr


class TestBuilders:
    def test_small_random_shapes_and_scaling(self):
        dyn, cost, sigma = build_small_random(0)
        assert dyn.A.shape == (4, 4)
        assert dyn.B.shape == (4, 2)
        assert spectral_radius(dyn.A) == pytest.approx(1.0, abs=1e-10)
        assert np.array_equal(dyn.W, 0.25 * np.eye(4))
        assert np.array_equal(cost.Q, np.eye(4))
        assert np.array_equal(cost.R, np.eye(2))
        assert np.array_equal(sigma, 4.0 * np.eye(2))

    def test_small_random_deterministic(self):
        a, _, _ = build_small_random(7)
        b, _, _ = build_small_random(7)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.B, b.B)

    def test_small_random_varies_with_seed(self):
        a, _, _ = build_small_random(1)
        b, _, _ = build_small_random(2)
        assert not np.array_equal(a.A, b.A)

    def test_aircraft_matrix_entries(self):
        dyn, cost, sigma = build_aircraft()
        assert dyn.A[1][2] == 7.74
        assert dyn.A[0].tolist() == [1.0, 0.039, 0.0, -0.322]
        assert dyn.B[0][0] == 0.0001
        assert dyn.B[2].tolist() == [-0.0116, 0.00598]
        assert dyn.W[3][3] == 0.0
        # wind covariance is the printed one up to the PSD projection
        assert dyn.W[0][0] == pytest.approx(0.100, abs=1e-4)
        assert dyn.W[0][1] == pytest.approx(-0.003, abs=1e-4)
        assert np.linalg.eigvalsh(dyn.W).min() >= -1e-12
        assert np.array_equal(sigma, 25.0 * np.eye(2))

    def test_aircraft_controllable(self):
        dyn, _, _ = build_aircraft()
        # rank of [B, AB, A^2 B, A^3 B]
        blocks = [dyn.B]
        for _ in range(3):
            blocks.append(dyn.A @ blocks[-1])
        assert np.linalg.matrix_rank(np.hstack(blocks)) == 4


class TestConfig:
    def test_outliers_preset(self):
        cfg = default_config("outliers")
        assert cfg.outlier_prob == 0.1
        assert cfg.loss.kind == "huber"
        assert cfg.loss.huber_m == 0.5

    def test_outliers_preset_overrides(self):
        cfg = config_from_dict({"experiment": "outliers", "outlier_prob": 0.2,
                                "loss": {"kind": "quadratic"}})
        assert cfg.outlier_prob == 0.2
        assert cfg.loss.kind == "quadratic"
        cfg = default_config("outliers", loss=LossSpec("huber", huber_m=0.3))
        assert cfg.outlier_prob == 0.1
        assert cfg.loss.huber_m == 0.3

    def test_from_dict_roundtrip(self):
        cfg = config_from_dict({
            "experiment": "small_random",
            "N_values": [1, 2],
            "seeds": [0, 1],
            "admm": {"n_iter": 10},
            "loss": {"kind": "huber", "huber_m": 0.4},
        })
        assert cfg.N_values == (1, 2)
        assert cfg.admm.n_iter == 10
        assert cfg.admm.rho == 1.0
        assert cfg.loss.huber_m == 0.4

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"bogus": 1})

    def test_custom_requires_path(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="custom")

    @pytest.mark.parametrize("field, value", [
        ("N_values", (2.7,)), ("N_values", (0,)), ("N_values", (True,)),
        ("seeds", (1.0,)), ("seeds", (-1,)),
        ("expert_eval_horizon", 2000.5), ("expert_eval_horizon", 0),
        ("outlier_prob", 5.0), ("outlier_prob", True),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})

    def test_counts_accept_numpy_integers(self):
        cfg = ExperimentConfig(N_values=tuple(np.arange(1, 4, 2)),
                               seeds=(np.int64(2),),
                               expert_eval_horizon=np.int32(500),
                               admm=AdmmConfig(n_iter=np.int64(5)))
        assert cfg.N_values == (1, 3) and cfg.seeds == (2,)
        assert all(type(v) is int for v in cfg.N_values + cfg.seeds)
        for n_iter in (10.5, 0, True):
            with pytest.raises(ValueError, match="n_iter"):
                AdmmConfig(n_iter=n_iter)

    def test_empty_sweeps_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(N_values=())
        with pytest.raises(ValueError):
            ExperimentConfig(seeds=())


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "results.csv"
    cfg = ExperimentConfig(
        experiment="small_random", N_values=(1, 4), seeds=(0, 1),
        admm=AdmmConfig(n_iter=25),
        expert_eval_horizon=20_000)
    rows, summary = run_experiment(cfg, out)
    return cfg, rows, summary, out


class TestRunExperiment:
    def test_row_count(self, tiny_run):
        cfg, rows, summary, out = tiny_run
        assert len(rows) == len(cfg.seeds) * len(cfg.N_values) * 4
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(rows)

    def test_rows_internally_consistent(self, tiny_run):
        _, rows, _, _ = tiny_run
        for row in rows:
            assert row.finite == (row.cost < math.inf)
            if row.finite:
                assert row.spectral_radius < 1.0
            else:
                assert row.spectral_radius >= 1.0 - 1e-9
            if row.method == "kalman":
                assert row.kalman_residual is not None
            else:
                assert row.kalman_residual is None

    def test_summary_structure(self, tiny_run):
        cfg, rows, summary, out = tiny_run
        assert summary["experiment"] == "small_random"
        assert [e["N"] for e in summary["per_N"]] == sorted(cfg.N_values)
        for entry in summary["per_N"]:
            assert set(entry["mean_cost"]) == {"pf", "kalman", "expert",
                                               "optimal"}
            assert set(entry["fraction_finite"]) == {"pf", "kalman", "expert",
                                                     "optimal"}
        with open(str(out)[:-4] + "_summary.json") as f:
            on_disk = json.load(f)
        assert on_disk == json.loads(json.dumps(summary))

    def test_optimal_beats_expert(self, tiny_run):
        _, rows, summary, _ = tiny_run
        for entry in summary["per_N"]:
            assert entry["mean_cost"]["optimal"] <= entry["mean_cost"]["expert"]
            # noisy expert is strictly worse under Sigma > 0
            assert entry["mean_cost"]["optimal"] < entry["mean_cost"]["expert"]

    def test_rerun_byte_identical(self, tiny_run, tmp_path):
        cfg, _, _, out = tiny_run
        out2 = tmp_path / "again.csv"
        run_experiment(cfg, out2)
        assert out.read_bytes() == out2.read_bytes()

    def test_certified_rows_finite(self, tiny_run):
        _, rows, summary, _ = tiny_run
        for entry in summary["per_N"]:
            assert entry["fraction_finite"]["kalman"] == 1.0
            assert entry["fraction_finite"]["optimal"] == 1.0
            assert entry["fraction_finite"]["expert"] == 1.0


def _cells_run_alone(cfg, rows):
    """``run_cell`` over the cells of ``cfg``, each followed by the expert
    and optimal rows of the sweep's ``rows``; returns the rows and the
    reports by (seed, N)."""
    reference = {(r.seed, r.N, r.method): r for r in rows
                 if r.method in ("expert", "optimal")}
    looped, reports = [], {}
    for seed in cfg.seeds:
        dyn, cost, sigma = (build_aircraft() if cfg.experiment == "aircraft"
                            else build_small_random(seed))
        Kstar = solve_lqr(dyn, cost).K
        for N in cfg.N_values:
            pf_row, kalman_row, _, reports[seed, N] = run_cell(
                cfg, dyn, cost, sigma, Kstar, seed, N)
            looped += [pf_row, kalman_row, reference[seed, N, "expert"],
                       reference[seed, N, "optimal"]]
    return looped, reports


@pytest.mark.parametrize("experiment, seeds, N_values", [
    ("small_random", (0, 1), (1, 3)),
    # cell (0, 1)'s certified re-solve needs the Newton refinement
    ("aircraft", (0, 1), (1,)),
])
def test_batched_sweep_equals_cells_run_alone(tmp_path, experiment, seeds,
                                              N_values):
    cfg = default_config(experiment, seeds=seeds, N_values=N_values,
                         expert_eval_horizon=5_000)
    rows, _ = run_experiment(cfg, tmp_path / "batch.csv")
    looped, reports = _cells_run_alone(cfg, rows)
    write_csv(looped, tmp_path / "cells.csv")
    assert ((tmp_path / "batch.csv").read_bytes()
            == (tmp_path / "cells.csv").read_bytes())
    if experiment == "aircraft":
        dyn = build_aircraft()[0]
        report = reports[0, 1]
        Q, R = report.certificate.Q, report.certificate.R
        P = solve_discrete_are(dyn.A, dyn.B, Q, R)
        BtP = dyn.B.T @ P
        K_ref = -np.linalg.solve(R + BtP @ dyn.B, BtP @ dyn.A)
        assert spectral_radius(dyn.closed_loop(report.K_certified)) < 1.0
        assert (np.linalg.norm(report.K_certified - K_ref)
                <= 1e-6 * np.linalg.norm(K_ref))


GRID = ExperimentConfig(experiment="small_random", N_values=(1, 3),
                        seeds=(0, 1), admm=AdmmConfig(n_iter=20),
                        expert_eval_horizon=5_000)


@pytest.fixture(scope="module")
def clean_grid():
    rows, _ = run_experiment(GRID)
    return rows


def _failing_after(fn, calls, hit, error):
    """``fn`` that raises ``error`` from the ``calls``-th call on which
    ``hit(args)`` holds."""
    count = 0

    def wrapper(*args, **kwargs):
        nonlocal count
        if hit(args):
            count += 1
            if count >= calls:
                raise error
        return fn(*args, **kwargs)
    return wrapper


def _assert_only_failed(clean, rows, failed):
    assert len(rows) == len(clean)
    for before, after in zip(clean, rows):
        if after.method == "kalman" and (after.seed, after.N) in failed:
            assert after.cost == math.inf and not after.finite
        else:
            assert after.to_csv() == before.to_csv()


class TestFailureIsolation:
    def test_k_step_failure_fails_only_its_cell(self, clean_grid,
                                                monkeypatch, capsys):
        dyn, cost, sigma = build_small_random(1)
        target = generate_demos(dyn, solve_lqr(dyn, cost).K, sigma, 3, 0.0,
                                np.random.SeedSequence((1, 3, 1)))
        # the stacked K steps of ADMM sweeps only (rho passed by position),
        # not of plain fitting; the 5th holding cell (1, 3)'s demos is
        # sweep 5's
        monkeypatch.setattr(conic_ls, "solve_k_step", _failing_after(
            conic_ls.solve_k_step, 5,
            lambda a: len(a) > 3 and any(
                np.array_equal(d.states, target.states) for d in a[0]),
            conic_ls.SingularFitError("injected")))
        rows, _ = run_experiment(GRID)
        err = capsys.readouterr().err
        assert ("warning: kalman fit failed at seed=1 N=3: subsolver failed "
                "at iteration 5: injected") in err
        assert err.count("warning:") == 1
        _assert_only_failed(clean_grid, rows, {(1, 3)})

    def test_stacked_pqr_failure_fails_only_its_cells(self, clean_grid,
                                                      monkeypatch, capsys):
        # a raising (P, Q, R) step on a stack holding seed 1's system, as a
        # stacked eigh or inv raises for all members: the batch is halved
        # until each of seed 1's cells runs alone, and only those fail
        A1 = build_small_random(1)[0].A
        monkeypatch.setattr(conic_ls, "solve_pqr_step", _failing_after(
            conic_ls.solve_pqr_step, 3,
            lambda a: any(np.array_equal(d.A, A1) for d in a[0]),
            np.linalg.LinAlgError("injected")))
        rows, _ = run_experiment(GRID)
        err = capsys.readouterr().err
        for N in (1, 3):
            assert (f"warning: kalman fit failed at seed=1 N={N}: subsolver "
                    f"failed at iteration 3: injected") in err
        assert err.count("warning:") == 2
        _assert_only_failed(clean_grid, rows, {(1, 1), (1, 3)})

    def test_riccati_failure_evaluates_the_fitted_gain(self, clean_grid,
                                                       monkeypatch, tmp_path,
                                                       capsys):
        # the fourth certified re-solve, cell (1, 3)'s, raises: its kalman
        # row evaluates the fitted K in place of K_certified, and says so
        # once on stderr, in a sweep and in run_cell alike
        warning = ("warning: certified re-solve failed at seed=1 N=3; "
                   "evaluating the fitted gain\n")

        def patch():
            monkeypatch.setattr(riccati, "solve_lqr", _failing_after(
                solve_lqr, 4, lambda a: isinstance(a[1], tuple),
                ConvergenceError("injected", math.inf)))
        patch()
        capsys.readouterr()
        rows, _ = run_experiment(GRID, tmp_path / "batch.csv")
        assert capsys.readouterr().err == warning
        patch()
        looped, reports = _cells_run_alone(GRID, rows)
        assert capsys.readouterr().err == warning
        write_csv(looped, tmp_path / "cells.csv")
        assert ((tmp_path / "batch.csv").read_bytes()
                == (tmp_path / "cells.csv").read_bytes())
        assert [seed_N for seed_N, r in reports.items()
                if r.K_certified is None] == [(1, 3)]
        dyn, cost, _ = build_small_random(1)
        for before, after in zip(clean_grid, rows):
            if after.method == "kalman" and (after.seed, after.N) == (1, 3):
                assert after.cost == closed_loop_cost(dyn, cost,
                                                      reports[1, 3].K)
                assert after.cost != before.cost
            else:
                assert after.to_csv() == before.to_csv()


def test_convergence_toward_optimal_at_scale():
    # desk-scale analogue of the cost-vs-N curves: with plenty of (noisy)
    # demonstrations the certified constrained fit approaches the optimal
    # cost and clearly beats plain fitting
    from lqfit.conic_ls import LossSpec, RegularizerSpec
    from lqfit.kalman_fit import fit_kalman_batch
    from lqfit.linsys import closed_loop_cost, generate_demos
    from lqfit.fitting import policy_fit
    from lqfit.riccati import solve_lqr

    quad, ridge = LossSpec("quadratic"), RegularizerSpec("ridge", 0.01)
    k_costs, pf_costs, o_costs = [], [], []
    cells = []
    for seed in range(12):
        dyn, cost, sigma = build_small_random(seed)
        Kstar = solve_lqr(dyn, cost).K
        demos = generate_demos(dyn, Kstar, sigma, 200, 0.0,
                               np.random.SeedSequence((seed, 200, 1)))
        J_pf = closed_loop_cost(dyn, cost, policy_fit(demos, quad, ridge).K)
        if math.isfinite(J_pf):
            pf_costs.append(J_pf)
        o_costs.append(closed_loop_cost(dyn, cost, Kstar))
        cells.append((demos, dyn, cost))
    reports = fit_kalman_batch([(demos, dyn) for demos, dyn, _ in cells],
                               quad, ridge, AdmmConfig())
    for (_, dyn, cost), rep in zip(cells, reports):
        if isinstance(rep, RuntimeError):
            raise rep
        k_costs.append(closed_loop_cost(dyn, cost, rep.K_certified))
    mean_k = sum(k_costs) / len(k_costs)
    mean_o = sum(o_costs) / len(o_costs)
    assert mean_k <= 1.6 * mean_o
    assert mean_k < sum(pf_costs) / len(pf_costs)


def test_custom_experiment(tmp_path):
    dyn, cost, _ = build_small_random(5)
    path = tmp_path / "system.json"
    payload = dyn.to_dict()
    payload["Q"] = np.eye(4).tolist()
    payload["R"] = np.eye(2).tolist()
    payload["Sigma"] = (0.5 * np.eye(2)).tolist()
    path.write_text(json.dumps(payload))
    cfg = ExperimentConfig(
        experiment="custom", dynamics_path=str(path), N_values=(4,),
        seeds=(0,), admm=AdmmConfig(n_iter=10),
        expert_eval_horizon=5_000)
    rows, summary = run_experiment(cfg)
    assert len(rows) == 4
    assert summary["experiment"] == "custom"


def test_seed_independent_system_set_up_once(tmp_path, monkeypatch):
    # a custom system and the 747 do not depend on the seed: each is built
    # and its expert solved once per sweep, while the certified re-solves
    # of the fits stay one per cell
    calls = {"load": 0, "aircraft": 0, "lqr": []}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    def counting_lqr(*args, **kwargs):
        # the calling module: bench solves the expert, kalman_fit re-solves
        calls["lqr"].append(sys._getframe(1).f_globals["__name__"])
        return solve_lqr(*args, **kwargs)

    monkeypatch.setattr(bench, "load_system",
                        counting("load", bench.load_system))
    monkeypatch.setattr(bench, "build_aircraft",
                        counting("aircraft", bench.build_aircraft))
    monkeypatch.setattr(riccati, "solve_lqr", counting_lqr)
    dyn, _, _ = build_small_random(5)
    Q, R = np.eye(4), np.eye(2)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(dict(dyn.to_dict(), Q=Q.tolist(),
                                    R=R.tolist())))
    rows, _ = run_experiment(ExperimentConfig(
        experiment="custom", dynamics_path=str(path), N_values=(2,),
        seeds=(0, 1, 2), admm=AdmmConfig(n_iter=3), expert_eval_horizon=200))
    assert len(rows) == 12
    assert calls["load"] == 1
    assert sorted(calls["lqr"]) == ["lqfit.bench"] + 3 * ["lqfit.kalman_fit"]
    # the expert rollout still draws per seed
    costs = [r.cost for r in rows if r.method == "expert"]
    assert len(set(costs)) == 3
    run_experiment(ExperimentConfig(
        experiment="aircraft", N_values=(1,), seeds=(0, 1),
        admm=AdmmConfig(n_iter=2), expert_eval_horizon=200))
    assert calls["aircraft"] == 1


def test_custom_experiment_takes_r_below_identity(tmp_path):
    # R = 0.5 is positive definite: lqr takes it, and so must a custom
    # experiment, whose cost is not held to the fitter's R >= I
    dyn, _, _ = build_small_random(5)
    Q, R = np.eye(4), 0.5 * np.eye(2)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(dict(dyn.to_dict(), Q=Q.tolist(),
                                    R=R.tolist())))
    cfg = ExperimentConfig(
        experiment="custom", dynamics_path=str(path), N_values=(2,),
        seeds=(0,), admm=AdmmConfig(n_iter=5), expert_eval_horizon=2000)
    rows, _ = run_experiment(cfg)
    assert [r.method for r in rows] == ["pf", "kalman", "expert", "optimal"]
    K = solve_lqr(dyn, (Q, R)).K
    assert rows[3].cost == closed_loop_cost(dyn, (Q, R), K)
