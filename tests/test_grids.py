"""tools/grids.py on a two-cell grid: its files, its figures and
``--compare``."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from lqfit import bench, closed_loop_cost, conic_ls, solve_lqr

_PATH = Path(__file__).resolve().parent.parent / "tools" / "grids.py"
_spec = importlib.util.spec_from_file_location("grids", _PATH)
grids = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(grids)

_ARGS = ["small_random", "--seeds", "0", "--N", "1", "3"]


def test_two_cell_grid_and_compare(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert grids.main([str(a), *_ARGS]) == 0
    report = capsys.readouterr().out.splitlines()
    config = bench.default_config("small_random", seeds=[0], N_values=[1, 3],
                                  expert_eval_horizon=2000)
    rows, _ = bench.run_experiment(config, tmp_path / "ref.csv")
    for suffix in (".csv", "_summary.json"):
        assert ((a / f"small_random{suffix}").read_bytes()
                == (tmp_path / f"ref{suffix}").read_bytes())
    assert report[1].startswith("small_random: 2 cells in ")
    cost = {(r.N, r.method): r.cost for r in rows}
    resid = {r.N: r.kalman_residual for r in rows if r.method == "kalman"}
    for N, line in zip((1, 3), report[2:]):
        ratio = cost[N, "kalman"] / cost[N, "optimal"]
        q = f"{resid[N]:.3g}"
        assert line == (f"  N={N}: kalman/optimal median {ratio:.6g}, "
                        f"mean {ratio:.6g}, finite 1/1, failed 0, "
                        f"residual quartiles {q} {q} {q}")
    # the true cost is (I, I), so the prior gain is the optimal gain
    for N, line in zip((1, 3), report[4:]):
        below = [int(cost[N, method] < cost[N, "optimal"])
                 for method in ("kalman", "pf")]
        assert line == (f"  N={N}: prior/optimal median 1, max 1; below the "
                        f"prior: kalman {below[0]}/1, pf {below[1]}/1")

    assert grids.main([str(b), *_ARGS]) == 0
    capsys.readouterr()
    assert grids.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "byte-identical (2 files)\n"

    # one kalman cost moved by 1e-9 relative
    csv = b / "small_random.csv"
    lines = csv.read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if ",kalman," in line)
    fields = lines[i].split(",")
    fields[4] = repr(float(fields[4]) * (1.0 + 1e-9))
    lines[i] = ",".join(fields)
    csv.write_text("\n".join(lines) + "\n")
    assert grids.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "small_random.csv: 1 rows moved"
    assert math.isclose(float(out[-1].split(": ")[1]), 1e-9, rel_tol=1e-3)


def test_mean_beside_median():
    rows = [bench.ResultRow(experiment="e", N=1, seed=s, method=method,
                            cost=cost, finite=math.isfinite(cost),
                            spectral_radius=0.5)
            for s, (opt, kal) in enumerate([(1.0, 2.0), (1.0, 3.0),
                                            (2.0, 14.0), (1.0, math.inf)])
            for method, cost in (("optimal", opt), ("kalman", kal))]
    assert grids._ratios(rows) == [
        "  N=1: kalman/optimal median 3, mean 4, finite 3/4, failed 0, "
        "residual quartiles nan nan nan"]


def test_failed_fit_counted(tmp_path, capsys, monkeypatch):
    # cell (0, 3)'s K step raises from its problem's third sweep on: its
    # kalman row is the failed one, and the N = 1 cell is untouched
    config = bench.default_config("small_random", seeds=[0], N_values=[1, 3],
                                  expert_eval_horizon=2000)
    dyn, cost, sigma = bench.build_small_random(0)
    target = bench._cell_demos(config, dyn, solve_lqr(dyn, cost).K, sigma,
                               0, 3)
    solve_k_step, calls = conic_ls.solve_k_step, [0]

    def failing(demos, *args, **kwargs):
        if isinstance(demos, list) and any(
                np.array_equal(d.states, target.states) for d in demos):
            calls[0] += 1
            if calls[0] >= 3:
                raise conic_ls.SingularFitError("injected")
        return solve_k_step(demos, *args, **kwargs)

    monkeypatch.setattr(conic_ls, "solve_k_step", failing)
    assert grids.main([str(tmp_path), *_ARGS]) == 0
    captured = capsys.readouterr()
    assert ("warning: kalman fit failed at seed=0 N=3: subsolver failed at "
            "iteration 3: injected") in captured.err
    rows = (tmp_path / "small_random.csv").read_text().splitlines()
    kalman = [line.split(",") for line in rows if ",kalman," in line]
    assert [(f[1], f[6]) for f in kalman if f[6] == "inf"] == [("3", "inf")]
    report = captured.out.splitlines()
    assert ", finite 1/1, failed 0, " in report[2]
    assert report[3].startswith("  N=3: kalman/optimal median nan, mean nan, "
                                "finite 0/1, failed 1, residual quartiles ")


def test_paired_compare_figures(tmp_path, capsys):
    # N = 1: 9 cells fell by a factor e^-0.1, 1 rose by e^0.2; N = 2: one
    # cell finite in neither run and one unmoved
    def csv(kalman):
        rows = [bench.ResultRow("e", N, seed, method, cost,
                                math.isfinite(cost), 0.5)
                for (N, seed), k in kalman.items()
                for method, cost in (("kalman", k), ("optimal", 2.0))]
        return "\n".join([bench.CSV_HEADER] + [r.to_csv() for r in rows])

    before = {(1, s): 3.0 for s in range(10)}
    before.update({(2, 0): math.inf, (2, 1): 4.0})
    after = {(1, s): 3.0 * math.exp(-0.1) for s in range(9)}
    after.update({(1, 9): 3.0 * math.exp(0.2), (2, 0): math.inf,
                  (2, 1): 4.0})
    assert grids._sign_test(9, 1) == 22 / 1024 == 0.021484375
    assert grids._sign_test(0, 0) == 1.0
    assert grids._sign_test(3, 3) == 1.0
    assert grids._paired(csv(before), csv(after)) == [
        "  N=1: kalman/optimal fell 9, rose 1, stayed 0, median log change "
        "-0.1, sign test p 0.0214844",
        "  N=2: kalman/optimal fell 0, rose 0, stayed 2, median log change "
        "0, sign test p 1"]
    # the figures follow the moved rows; the exit code stays 1
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "e.csv").write_text(csv(before) + "\n")
    (b / "e.csv").write_text(csv(after) + "\n")
    assert grids.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "e.csv: 10 rows moved"
    assert out[-3:-1] == grids._paired(csv(before), csv(after))


@pytest.mark.parametrize("case", ["both empty", "one empty", "missing"])
def test_compare_needs_two_output_directories(tmp_path, capsys, case):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    if case != "missing":
        b.mkdir()
    if case != "both empty":
        (a / "small_random.csv").write_text("experiment,N,seed,method\n")
    with pytest.raises(SystemExit) as exit_:
        grids.main(["--compare", str(a), str(b)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    empty = b if case == "one empty" else a
    assert (f"no directory {b}" if case == "missing"
            else f"{empty} holds no grid outputs") in err


def test_two_seed_checks_grid(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert grids.main([str(a), "checks", "--seeds", "0", "1"]) == 0
    report = capsys.readouterr().out.splitlines()
    assert report[1].startswith("checks: 2 systems in ")
    kinds = grids.CHECK_KINDS + ("cold",)
    assert [line.split(":")[0].strip() for line in report[2:]] == list(kinds)
    lines = (a / "checks.csv").read_text().splitlines()
    assert lines[0] == "seed,kind,n,m,answer,iterations,value,gap"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        (str(seed), kind) for seed in (0, 1) for kind in kinds]
    for kind, line in zip(kinds, report[2:]):
        answers = [r[4] for r in rows if r[1] == kind]
        counts = dict(item.rsplit(" ", 1)
                      for item in line.split(": ")[1].split(", "))
        assert sum(map(int, counts.values())) == 2
        assert all(int(counts[x]) == answers.count(x) for x in counts)
    # the LQR gains are optimal and no gain is optimal on A = 0
    assert [r[4] for r in rows if r[1] == "lqr"] == ["feasible"] * 2
    assert [r[4] for r in rows if r[1] == "zero-dynamics"] == (
        ["infeasible"] * 2)
    # K = 0 is optimal for Q = 0, R = I, on route 3 where A is unstable
    assert [r[4] for r in rows if r[1] == "zero-gain"] == ["feasible"] * 2
    assert all(float(r[7]) >= 0.0 for r in rows if r[1] == "cold")

    assert grids.main([str(b), "checks", "--seeds", "0", "1"]) == 0
    capsys.readouterr()
    assert grids.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "byte-identical (1 files)\n"


def test_checks_grid_answers_on_all_seeds(tmp_path, capsys):
    # every answer of the 60-seed checks grid, and its Newton steps
    assert grids.main([str(tmp_path), "checks"]) == 0
    report = capsys.readouterr().out.splitlines()
    assert report[2:7] == [
        "  lqr: feasible 60, infeasible 0, undecided 0",
        "  move-1e-3: feasible 59, infeasible 1, undecided 0",
        "  move-1e-4: feasible 60, infeasible 0, undecided 0",
        "  zero-dynamics: feasible 0, infeasible 60, undecided 0",
        "  zero-gain: feasible 60, infeasible 0, undecided 0"]
    rows = [line.split(",") for line in
            (tmp_path / "checks.csv").read_text().splitlines()[1:]]
    assert sum(int(r[5]) for r in rows if r[1] != "cold") == 7065


def test_compare_counts_changed_answers(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert grids.main([str(a), "checks", "--seeds", "0", "1"]) == 0
    capsys.readouterr()
    # one flipped answer; another row's residual and Newton steps moved
    lines = (a / "checks.csv").read_text().splitlines()
    flipped, moved = lines[1].split(","), lines[2].split(",")
    assert flipped[4] == "feasible"
    flipped[4] = "infeasible"
    moved[5], moved[6] = str(int(moved[5]) + 1), repr(float(moved[6]) * 2.0)
    lines[1], lines[2] = ",".join(flipped), ",".join(moved)
    b.mkdir()
    (b / "checks.csv").write_text("\n".join(lines) + "\n")
    assert grids.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    move = float(moved[6]) / 2.0
    assert out[:2] == ["checks.csv: 2 rows moved",
                       "  answers changed 1, Newton steps changed 1, "
                       f"largest absolute value move {move:.3g}"]
    # an experiment CSV gets no such line
    assert grids._check_changes(bench.CSV_HEADER, bench.CSV_HEADER) == []


def test_compare_reports_absolute_residual_moves(tmp_path, capsys):
    # seed 11's move-1e-3 residual moved from 1.666e-14 to 4.07e-15, a
    # relative move of 0.756 at roundoff level
    rows = ["seed,kind,n,m,answer,iterations,value,gap",
            "11,lqr,2,1,feasible,0,4.782987168225453e-15,",
            "11,move-1e-3,2,1,feasible,0,1.666e-14,"]
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
    (a / "checks.csv").write_text("\n".join(rows) + "\n")
    rows[2] = rows[2].replace("1.666e-14", "4.070144838902081e-15")
    (b / "checks.csv").write_text("\n".join(rows) + "\n")
    assert grids.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["checks.csv: 1 rows moved",
                       "  answers changed 0, Newton steps changed 0, "
                       "largest absolute value move 1.26e-14"]
    # the checks rows stay out of the relative figure
    assert out[-1] == "largest relative move: 0"


@pytest.mark.parametrize("grid, build", [
    ("random_cost", bench.build_small_random),
    ("random_cost_747", lambda seed: bench.build_aircraft())],
    ids=["random_cost", "random_cost_747"])
def test_two_seed_random_cost_grid(tmp_path, capsys, grid, build):
    out = tmp_path / "a"
    assert grids.main([str(out), grid, "--seeds", "0", "1",
                       "--N", "1", "3"]) == 0
    report = capsys.readouterr().out.splitlines()
    assert report[1].startswith(f"{grid}: 4 cells in ")
    rows, prior, prior_cost = [], {}, {}
    for seed in (0, 1):
        # the written system: the preset's (A, B, W, Sigma), random (Q, R)
        path = out / grid / f"seed_{seed}.json"
        system = json.loads(path.read_text())
        dyn, _, sigma = build(seed)
        rng = np.random.default_rng([1, seed])
        G, H = rng.standard_normal((4, 4)), rng.standard_normal((2, 2))
        cost = (G @ G.T, np.eye(2) + H @ H.T)
        assert system == dict(dyn.to_dict(), Q=cost[0].tolist(),
                              R=cost[1].tolist(), Sigma=sigma.tolist())
        config = bench.default_config(
            "custom", dynamics_path=str(path), seeds=[seed], N_values=[1, 3],
            expert_eval_horizon=2000)
        rows += bench.run_experiment(config)[0]
        # the prior gain LQR(I, I) against the optimal gain
        K_prior = solve_lqr(dyn, (np.eye(4), np.eye(2))).K
        K_opt = solve_lqr(dyn, cost).K
        prior_cost[seed] = closed_loop_cost(dyn, cost, K_prior)
        prior[seed] = prior_cost[seed] / closed_loop_cost(dyn, cost, K_opt)
    bench.write_csv(rows, tmp_path / "ref.csv")
    csv = (out / f"{grid}.csv").read_text()
    assert csv == (tmp_path / "ref.csv").read_text()
    summary = json.loads((out / f"{grid}_summary.json").read_text())
    assert summary == json.loads(json.dumps(bench.summarize("custom", rows)))
    for N, line in zip((1, 3), report[4:]):
        below = [sum(r.finite and r.cost < prior_cost[r.seed] for r in rows
                     if r.N == N and r.method == method)
                 for method in ("kalman", "pf")]
        assert line == (f"  N={N}: prior/optimal median "
                        f"{np.median(list(prior.values())):.6g}, "
                        f"max {max(prior.values()):.6g}; below the prior: "
                        f"kalman {below[0]}/2, pf {below[1]}/2")
    # the printed quartiles are numpy's over the CSV's residual column
    fields = [line.split(",") for line in csv.splitlines()[1:]]
    for N, line in zip((1, 3), report[2:]):
        resid = [float(f[7]) for f in fields
                 if f[1] == str(N) and f[3] == "kalman" and f[7]]
        assert len(resid) == 2
        q = np.percentile(resid, [25, 50, 75])
        assert line.endswith(f", residual quartiles {q[0]:.3g} {q[1]:.3g} "
                             f"{q[2]:.3g}")
