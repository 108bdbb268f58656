"""Run named experiment grids and compare their outputs between checkouts.

    python3 tools/grids.py OUT_DIR [GRID ...] [--seeds S ...] [--N N ...]
    python3 tools/grids.py --src ../parent/src OUT_PARENT [GRID ...]
    python3 tools/grids.py --compare DIR_A DIR_B

The first form runs ``bench.run_experiment`` on each named grid (all of
them when none is named) at expert horizon 2000 and writes
``OUT_DIR/<grid>.csv`` and ``OUT_DIR/<grid>_summary.json``; ``--seeds``
and ``--N`` replace every named grid's seeds and demonstration counts.  It
prints each grid's time and, per N, the median and mean ratio of the
kalman rows' cost to the optimal cost (finite rows only) and the fraction
of finite kalman rows; times go to standard output only, never to the files.
``--src`` imports lqfit from another source tree, such as a checkout of
the parent commit, instead of this checkout's ``src/``.

``--compare`` reports "byte-identical" when both directories hold the same
files with the same bytes and exits 0; otherwise it lists the files and
CSV rows that differ, the largest relative move of a number in those
rows, and exits 1.  A directory that is missing or holds no ``.csv`` or
``.json`` file is a usage error (exit 2): it compares equal to nothing.
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
}


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
        config = bench.default_config(
            experiment, seeds=seeds or grid_seeds,
            N_values=N_values or grid_N, expert_eval_horizon=HORIZON)
        start = time.perf_counter()
        rows, _ = bench.run_experiment(config, out_dir / f"{name}.csv")
        seconds = time.perf_counter() - start
        lines.append(f"{name}: {len(config.seeds) * len(config.N_values)} "
                     f"cells in {seconds:.2f} s")
        lines.extend(_ratios(rows))
    return lines


def _ratios(rows):
    """Per N: the median and mean kalman/optimal cost ratio over finite
    rows and the fraction of finite kalman rows."""
    optimal = {(r.N, r.seed): r.cost for r in rows if r.method == "optimal"}
    out = []
    for N in sorted({r.N for r in rows}):
        kalman = [r for r in rows if r.method == "kalman" and r.N == N]
        ratios = [r.cost / optimal[N, r.seed] for r in kalman if r.finite]
        median, mean = ((statistics.median(ratios), statistics.fmean(ratios))
                        if ratios else (math.nan, math.nan))
        out.append(f"  N={N}: kalman/optimal median {median:.6g}, "
                   f"mean {mean:.6g}, finite {len(ratios)}/{len(kalman)}")
    return out


def _move(a, b):
    """Relative move from number a to number b (inf where only one is
    finite, 0 where both are equal or both NaN)."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _numbers(text):
    """The fields of a CSV line read as numbers where they are numbers."""
    out = []
    for field in text.split(","):
        try:
            out.append(float(field))
        except ValueError:
            out.append(field)
    return out


def _csv_moves(text_a, text_b):
    """(rows that differ, largest relative move) of two grid CSVs; rows
    are matched by (experiment, N, seed, method)."""
    def rows(text):
        return {tuple(line.split(",")[:4]): line
                for line in text.splitlines()[1:]}

    a, b = rows(text_a), rows(text_b)
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
            lines.extend(moved)
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
