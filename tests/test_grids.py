"""tools/grids.py on a two-cell grid: its files, its figures and
``--compare``."""

import importlib.util
import math
from pathlib import Path

from lqfit import bench

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
    for N, line in zip((1, 3), report[2:]):
        ratio = cost[N, "kalman"] / cost[N, "optimal"]
        assert line == (f"  N={N}: kalman/optimal median {ratio:.6g}, "
                        f"finite 1/1")

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
