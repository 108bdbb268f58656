"""Run named experiment grids and compare their outputs between checkouts.

    python3 tools/grids.py OUT_DIR [GRID ...] [--seeds S ...] [--N N ...]
    python3 tools/grids.py --src ../parent/src OUT_PARENT [GRID ...]
    python3 tools/grids.py --compare DIR_A DIR_B

The first form runs ``bench.run_experiment`` on each named grid (all of
them when none is named) at expert horizon 2000 and writes
``OUT_DIR/<grid>.csv`` and ``OUT_DIR/<grid>_summary.json``; ``--seeds``
and ``--N`` replace every named grid's seeds and demonstration counts.  It
prints each grid's time and, per N, the median and mean ratio of the
kalman rows' cost to the optimal cost (finite rows only), the fraction
of finite kalman rows, the number of kalman rows whose fit failed (the
rows with an infinite ``spectral_radius``) and the quartiles (numpy's
``percentile``) of the kalman rows' ``kalman_residual``.  After those
lines it prints, per N, the prior baseline: the median and largest
ratio of the prior gain's cost to the optimal cost over the seeds, and
how many finite kalman and pf rows cost less than their seed's prior
gain.  The prior gain is
``solve_lqr(dyn, (I, I)).K``, which reads no demonstration; on the
presets the true cost is (I, I), so there it reads 1.  These figures go
to standard output only, never to the files.  The per-N time is not
printed: a grid runs as one batch, so its N values share one time.

The ``random_cost`` and ``random_cost_747`` grids run a preset's systems
under a random true cost: small_random's and the 747's (``aircraft``).
Per seed (0-9) they take (A, B, W, Sigma) from the preset and set
Q = G G^T and R = I + H H^T, with G (4 x 4) and H (2 x 2) standard normal
from ``default_rng([1, seed])``; they write that system to
``OUT_DIR/<grid>/seed_<seed>.json`` and run it as a ``custom``
experiment of that one seed.  The rows of all seeds go to
``<grid>.csv`` and their summary to ``<grid>_summary.json``.  The
large-N grid of both systems is

    python3 tools/grids.py OUT_DIR random_cost random_cost_747 --N 100 1000

``--src`` imports lqfit from another source tree, such as a checkout of
the parent commit, instead of this checkout's ``src/``.

The ``checks`` grid runs no experiment: it calls the optimality check and
the cold (P, Q, R) step, the two solvers whose Newton steps go through
the svec layout's ``split`` and ``join``, on one random system per seed
(0-59), and writes ``OUT_DIR/checks.csv``.  ``default_rng(seed)`` draws n
in 2-8 and m in 1-4, A standard normal rescaled to a spectral radius
drawn from [0.5, 1.3], and B standard normal.  Five gains are checked:
the LQR gain for Q = G G^T and R = I + H H^T (G and H standard normal),
that gain moved by 1e-3 and by 1e-4 ||K||_F in a random direction, a
random gain on A = 0, and K = 0, which draws nothing and, where A has a
mode outside the unit circle, takes the check's route 3 (the unstable
modes in ker K split off); a row holds the verdict, the Newton steps and
the residual.  One cold ``solve_pqr_step`` at the 1e-3 gain, with Y1 and
Y2 0.2 times standard normal, adds a row with whether its gap test held
(``converged``), its Newton steps, its objective and its ``gap`` (the
barrier's gap estimate at its last centering, not a proven bound).  It
prints the count of each answer per kind, ``undecided`` included; ``--N``
does not apply.

``--compare`` reports "byte-identical" when both directories hold the same
files with the same bytes and exits 0; otherwise it lists the files and
CSV rows that differ, the largest relative move of a number in those
rows of the experiment CSVs, and exits 1.  On a checks CSV that differs,
the line after its count of moved rows counts the rows whose answer and
whose Newton steps changed and gives the largest absolute move of the
``value`` column: its residuals lie at roundoff level, where a relative
move says nothing, so they stay out of the relative figure.  For each
experiment CSV that differs it also pairs
the cells (experiment, N, seed) of the two runs and prints, per N, how
many cells' kalman/optimal cost ratio fell, rose or stayed, the median
change of the log ratio over the cells finite on both sides, and the
exact two-sided sign-test p-value of the falls against the rises (ties
dropped; 1 when no cell moved).  A directory that is missing or holds no
``.csv`` or ``.json`` file is a usage error (exit 2): it compares equal
to nothing.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HORIZON = 2000

# name: (experiment preset, seeds, N values)
GRIDS = {
    "small_random": ("small_random", tuple(range(10)), (1, 3, 10)),
    "aircraft": ("aircraft", tuple(range(10)), (1, 3, 5)),
    "outliers": ("outliers", tuple(range(10)), (2, 5)),
    "acceptance": ("small_random", tuple(range(20)), (1, 2, 3, 5, 10)),
    # the cells of the benchmark's two sweep workloads
    "bench-small-random": ("small_random", (0,), (1, 5)),
    "bench-aircraft": ("aircraft", (0, 1), (1,)),
    # no experiment: optimality checks and cold (P, Q, R) steps
    "checks": (None, tuple(range(60)), ()),
    # a preset's systems under a random true cost, as custom systems
    "random_cost": ("custom", tuple(range(10)), (1, 3, 10)),
    "random_cost_747": ("custom", tuple(range(10)), (1, 3, 10)),
}
# the preset whose (A, B, W, Sigma) each random-cost grid reads
RANDOM_COST = {"random_cost": "small_random", "random_cost_747": "aircraft"}
CHECK_KINDS = ("lqr", "move-1e-3", "move-1e-4", "zero-dynamics", "zero-gain")
VERDICTS = ("feasible", "infeasible", "undecided")


def run_grids(out_dir, names, seeds=None, N_values=None, src=None):
    """Run the grids ``names`` into ``out_dir``; returns the printed
    report as a list of lines."""
    src = str(Path(src) if src else ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from lqfit import bench

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"lqfit from {Path(bench.__file__).parent}"]
    for name in names:
        experiment, grid_seeds, grid_N = GRIDS[name]
        grid_seeds, grid_N = seeds or grid_seeds, N_values or grid_N
        start = time.perf_counter()
        if experiment is None:
            rows = _run_checks(out_dir / f"{name}.csv", grid_seeds)
            seconds = time.perf_counter() - start
            lines.append(f"{name}: {len(grid_seeds)} systems in "
                         f"{seconds:.2f} s")
            lines.extend(_answer_counts(rows))
            continue
        if experiment == "custom":
            rows = _run_random_cost(out_dir, name, grid_seeds, grid_N)
        else:
            config = bench.default_config(experiment, seeds=grid_seeds,
                                          N_values=grid_N,
                                          expert_eval_horizon=HORIZON)
            rows, _ = bench.run_experiment(config, out_dir / f"{name}.csv")
        seconds = time.perf_counter() - start
        lines.append(f"{name}: {len(grid_seeds) * len(grid_N)} cells in "
                     f"{seconds:.2f} s")
        lines.extend(_ratios(rows))
        lines.extend(_prior(rows, {seed: _prior_cost(name, seed)
                                   for seed in grid_seeds}))
    return lines


def _system(preset, seed):
    """(dyn, true cost, Sigma) of a preset experiment's system at
    ``seed``."""
    from lqfit import bench

    if preset == "aircraft":
        return bench.build_aircraft()
    return bench.build_small_random(seed)


def _random_cost_system(name, seed):
    """(dyn, (Q, R), Sigma) of the random-cost grid ``name`` at ``seed``:
    its preset's system under Q = G G^T, R = I + H H^T."""
    import numpy as np

    dyn, _, sigma = _system(RANDOM_COST[name], seed)
    rng = np.random.default_rng([1, seed])
    G = rng.standard_normal((dyn.n, dyn.n))
    H = rng.standard_normal((dyn.m, dyn.m))
    return dyn, (G @ G.T, np.eye(dyn.m) + H @ H.T), sigma


def _prior_cost(name, seed):
    """The true cost in grid ``name`` at ``seed`` of the prior gain
    LQR(I, I), which reads no demonstration."""
    import numpy as np
    from lqfit import closed_loop_cost, solve_lqr

    dyn, cost, _ = (_random_cost_system(name, seed) if name in RANDOM_COST
                    else _system(GRIDS[name][0], seed))
    K = solve_lqr(dyn, (np.eye(dyn.n), np.eye(dyn.m))).K
    return closed_loop_cost(dyn, cost, K)


def _prior(rows, prior_cost):
    """Per N: the median and largest prior/optimal cost ratio over the
    seeds, and how many finite kalman and pf rows cost less than their
    seed's prior gain (``prior_cost``, by seed)."""
    optimal = {(r.N, r.seed): r.cost for r in rows if r.method == "optimal"}
    out = []
    for N in sorted({r.N for r in rows}):
        ratios = [prior_cost[seed] / cost
                  for (n, seed), cost in optimal.items() if n == N]
        below = []
        for method in ("kalman", "pf"):
            cells = [r for r in rows if r.method == method and r.N == N]
            beat = sum(r.finite and r.cost < prior_cost[r.seed]
                       for r in cells)
            below.append(f"{method} {beat}/{len(cells)}")
        out.append(f"  N={N}: prior/optimal median "
                   f"{statistics.median(ratios):.6g}, max {max(ratios):.6g}"
                   f"; below the prior: {', '.join(below)}")
    return out


def _run_random_cost(out_dir, name, seeds, N_values):
    """Run the random-cost grid ``name`` into ``out_dir``; returns its
    rows."""
    import json

    from lqfit import bench

    systems = out_dir / name
    systems.mkdir(exist_ok=True)
    rows = []
    for seed in seeds:
        dyn, (Q, R), sigma = _random_cost_system(name, seed)
        path = systems / f"seed_{seed}.json"
        path.write_text(json.dumps(dict(
            dyn.to_dict(), Q=Q.tolist(), R=R.tolist(), Sigma=sigma.tolist())))
        config = bench.default_config(
            "custom", dynamics_path=str(path), seeds=(seed,),
            N_values=N_values, expert_eval_horizon=HORIZON)
        rows += bench.run_experiment(config)[0]
    bench.write_csv(rows, out_dir / f"{name}.csv")
    bench.write_summary(bench.summarize("custom", rows),
                        out_dir / f"{name}_summary.json")
    return rows


def _run_checks(path, seeds):
    """Write the checks grid's CSV for ``seeds`` to ``path``; returns its
    rows as (kind, answer) pairs."""
    import numpy as np
    from lqfit import LinearDynamics, check_kalman_feasible, solve_lqr
    from lqfit import solve_pqr_step, spectral_radius

    lines = ["seed,kind,n,m,answer,iterations,value,gap"]
    rows = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        A *= rng.uniform(0.5, 1.3) / spectral_radius(A)
        dyn = LinearDynamics(A=A, B=rng.standard_normal((n, m)),
                             W=np.zeros((n, n)))
        G, H = rng.standard_normal((n, n)), rng.standard_normal((m, m))
        K = solve_lqr(dyn, (G @ G.T, np.eye(m) + H @ H.T)).K
        D = rng.standard_normal((m, n))
        D *= np.linalg.norm(K) / np.linalg.norm(D)
        zero = LinearDynamics(A=np.zeros((n, n)), B=dyn.B, W=dyn.W)
        gains = [(dyn, K), (dyn, K + 1e-3 * D), (dyn, K + 1e-4 * D),
                 (zero, rng.standard_normal((m, n))), (dyn, np.zeros((m, n)))]
        for kind, (system, gain) in zip(CHECK_KINDS, gains):
            res = check_kalman_feasible(system, gain)
            rows.append((kind, res.verdict))
            lines.append(f"{seed},{kind},{n},{m},{res.verdict},"
                         f"{res.iterations},{res.certificate.residual!r},")
        step = solve_pqr_step(dyn, gains[1][1],
                              0.2 * rng.standard_normal((n, n)),
                              0.2 * rng.standard_normal((m, n)), rho=1.0)
        answer = "converged" if step.converged else "not converged"
        rows.append(("cold", answer))
        lines.append(f"{seed},cold,{n},{m},{answer},{step.iterations},"
                     f"{step.objective!r},{step.gap!r}")
    Path(path).write_text("\n".join(lines) + "\n")
    return rows


def _answer_counts(rows):
    """Per kind, the count of each answer of the checks grid's rows."""
    out = []
    for kind in CHECK_KINDS + ("cold",):
        answers = [a for k, a in rows if k == kind]
        names = VERDICTS if kind != "cold" else ("converged",
                                                 "not converged")
        out.append(f"  {kind}: " + ", ".join(
            f"{a} {answers.count(a)}" for a in names))
    return out


def _ratios(rows):
    """Per N: the median and mean kalman/optimal cost ratio over finite
    rows, the fraction of finite kalman rows, the number whose fit failed
    (``bench`` writes an infinite spectral radius for those) and the
    quartiles of the kalman rows' residuals (rows without one left
    out)."""
    import numpy as np

    optimal = {(r.N, r.seed): r.cost for r in rows if r.method == "optimal"}
    out = []
    for N in sorted({r.N for r in rows}):
        kalman = [r for r in rows if r.method == "kalman" and r.N == N]
        ratios = [r.cost / optimal[N, r.seed] for r in kalman if r.finite]
        median, mean = ((statistics.median(ratios), statistics.fmean(ratios))
                        if ratios else (math.nan, math.nan))
        resid = [r.kalman_residual for r in kalman
                 if r.kalman_residual is not None]
        quartiles = (np.percentile(resid, [25, 50, 75]) if resid
                     else [math.nan] * 3)
        failed = sum(r.spectral_radius == math.inf for r in kalman)
        out.append(f"  N={N}: kalman/optimal median {median:.6g}, "
                   f"mean {mean:.6g}, finite {len(ratios)}/{len(kalman)}, "
                   f"failed {failed}, residual quartiles "
                   + " ".join(f"{q:.3g}" for q in quartiles))
    return out


def _move(a, b, relative=True):
    """Relative (or absolute) move from number a to number b (inf where
    only one is finite, 0 where both are equal or both NaN)."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / (max(abs(a), abs(b)) if relative else 1.0)


def _numbers(text):
    """The fields of a CSV line read as numbers where they are numbers."""
    out = []
    for field in text.split(","):
        try:
            out.append(float(field))
        except ValueError:
            out.append(field)
    return out


def _rows(text):
    """The rows of a grid CSV by their first four fields: (experiment, N,
    seed, method), or (seed, kind, n, m) in the checks grid."""
    return {tuple(line.split(",")[:4]): line
            for line in text.splitlines()[1:]}


def _csv_moves(text_a, text_b):
    """(rows that differ, largest relative move) of two grid CSVs, their
    rows matched by :func:`_rows`."""
    a, b = _rows(text_a), _rows(text_b)
    moved, largest = [], 0.0
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) == b.get(key):
            continue
        moved.append(f"  - {a.get(key, '(missing)')}\n"
                     f"  + {b.get(key, '(missing)')}")
        if key not in a or key not in b:
            largest = math.inf
            continue
        for x, y in zip(_numbers(a[key]), _numbers(b[key])):
            if isinstance(x, float) and isinstance(y, float):
                largest = max(largest, _move(x, y))
            elif x != y:
                largest = math.inf
    return moved, largest


def _is_checks(text):
    """Whether a grid CSV is the checks grid's."""
    return text.startswith("seed,kind,")


def _check_changes(text_a, text_b):
    """The line counting the rows of two checks-grid CSVs, matched by
    :func:`_rows`, whose answer or Newton steps differ, with the largest
    absolute move of their ``value`` column; no line for an experiment
    CSV."""
    if not _is_checks(text_a):
        return []
    a, b = _rows(text_a), _rows(text_b)
    pairs = [(a[key].split(",")[4:7], b[key].split(",")[4:7])
             for key in a.keys() & b.keys()]
    answers = sum(x[0] != y[0] for x, y in pairs)
    steps = sum(x[1] != y[1] for x, y in pairs)
    value = max((_move(float(x[2]), float(y[2]), relative=False)
                 for x, y in pairs), default=0.0)
    return [f"  answers changed {answers}, Newton steps changed {steps}, "
            f"largest absolute value move {value:.3g}"]


def _kalman_ratios(text):
    """{(experiment, N, seed): kalman/optimal cost ratio} of a grid CSV;
    empty for the checks grid.  Cells whose optimal cost is not positive
    are left out."""
    cost = {}
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        if len(fields) > 4 and fields[3] in ("kalman", "optimal"):
            cost[tuple(fields[:3]), fields[3]] = float(fields[4])
    return {cell: c / cost[cell, "optimal"]
            for (cell, method), c in cost.items()
            if method == "kalman" and cost.get((cell, "optimal"), 0.0) > 0.0}


def _sign_test(fell, rose):
    """Exact two-sided sign-test p-value of ``fell`` against ``rose`` (ties
    already dropped): 1 when nothing moved."""
    n = fell + rose
    tail = sum(math.comb(n, i) for i in range(min(fell, rose) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def _paired(text_a, text_b):
    """Per N, the paired figures of two grid CSVs' kalman/optimal ratios:
    the cells that fell, rose or stayed, the median change of the log
    ratio over cells finite on both sides, and the sign-test p-value."""
    a, b = _kalman_ratios(text_a), _kalman_ratios(text_b)
    cells = sorted(a.keys() & b.keys())
    out = []
    for N in sorted({int(c[1]) for c in cells}):
        pairs = [(a[c], b[c]) for c in cells if int(c[1]) == N]
        fell = sum(y < x for x, y in pairs)
        rose = sum(y > x for x, y in pairs)
        logs = [math.log(y) - math.log(x) for x, y in pairs
                if 0.0 < x < math.inf and 0.0 < y < math.inf]
        median = statistics.median(logs) if logs else math.nan
        out.append(f"  N={N}: kalman/optimal fell {fell}, rose {rose}, "
                   f"stayed {len(pairs) - fell - rose}, median log change "
                   f"{median:.3g}, sign test p {_sign_test(fell, rose):.6g}")
    return out


def _outputs(directory):
    """The names of the grid outputs in ``directory``."""
    return {p.name for p in Path(directory).iterdir()
            if p.suffix in (".csv", ".json")}


def compare(dir_a, dir_b):
    """(whether the two output directories are byte-identical, report
    lines)."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = sorted(_outputs(dir_a) | _outputs(dir_b))
    lines, largest, same = [], 0.0, True
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.exists() and b.exists()):
            lines.append(f"{name}: only in {dir_a if a.exists() else dir_b}")
            same, largest = False, math.inf
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        same = False
        text_a, text_b = a.read_text(), b.read_text()
        if name.endswith(".csv"):
            moved, move = _csv_moves(text_a, text_b)
            lines.append(f"{name}: {len(moved)} rows moved")
            lines.extend(_check_changes(text_a, text_b))
            lines.extend(moved)
            lines.extend(_paired(text_a, text_b))
            # a checks residual at roundoff level moves by a large share
            if not _is_checks(text_a):
                largest = max(largest, move)
        else:
            # a summary's numbers are means of its CSV's rows
            lines.append(f"{name}: differs")
    if same:
        return True, [f"byte-identical ({len(names)} files)"]
    return False, lines + [f"largest relative move: {largest:.3g}"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", nargs=2, metavar="DIR")
    parser.add_argument("out_dir", nargs="?")
    parser.add_argument("grids", nargs="*", metavar="GRID",
                        help=f"one of {', '.join(GRIDS)} (default: all)")
    parser.add_argument("--seeds", nargs="+", type=int)
    parser.add_argument("--N", nargs="+", type=int, dest="N_values")
    parser.add_argument("--src", help="import lqfit from this directory")
    args = parser.parse_args(argv)
    if args.compare:
        if args.out_dir:
            parser.error("--compare takes no output directory")
        for directory in args.compare:
            if not Path(directory).is_dir():
                parser.error(f"--compare: no directory {directory}")
            if not _outputs(directory):
                parser.error(f"--compare: {directory} holds no grid outputs "
                             f"(.csv or .json files)")
        same, lines = compare(*args.compare)
        print("\n".join(lines))
        return 0 if same else 1
    if not args.out_dir:
        parser.error("an output directory or --compare is required")
    unknown = [g for g in args.grids if g not in GRIDS]
    if unknown:
        parser.error(f"unknown grids {unknown}; known: {', '.join(GRIDS)}")
    lines = run_grids(args.out_dir, args.grids or list(GRIDS), args.seeds,
                      args.N_values, args.src)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
