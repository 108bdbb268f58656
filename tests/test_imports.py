"""lqfit runs on numpy alone: in a fresh interpreter where every scipy
import fails, the public calls, a rollout cost estimate and a one-cell
experiment all run, and no scipy module is loaded."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
from pathlib import Path

sys.modules["scipy"] = None  # any scipy import now raises ImportError
src, tmp = sys.argv[1:3]
sys.path.insert(0, src)
import numpy as np
import lqfit
import lqfit.cli
from lqfit import (AdmmConfig, CostMatrices, LinearDynamics, LossSpec,
                   RegularizerSpec, check_kalman_feasible, fit_kalman,
                   generate_demos, rollout_cost_estimate, solve_lqr)

assert Path(lqfit.__file__).resolve().parent == Path(src) / "lqfit", lqfit.__file__

def scipy_modules():
    return sorted(m for m, mod in sys.modules.items() if mod is not None
                  and (m == "scipy" or m.startswith("scipy.")))

dyn = LinearDynamics(A=[[1.0, 0.2], [0.0, 0.9]], B=[[0.0], [1.0]],
                     W=0.1 * np.eye(2))
cost = CostMatrices(Q=np.eye(2), R=np.eye(1))
K = solve_lqr(dyn, cost).K
assert check_kalman_feasible(dyn, K).feasible
demos = generate_demos(dyn, K, np.eye(1), 5, 0.0, 0)
fit_kalman(demos, LossSpec("quadratic"), RegularizerSpec("ridge", 0.01), dyn,
           AdmmConfig(n_iter=5))
system, gain = Path(tmp) / "system.json", Path(tmp) / "gain.json"
system.write_text(json.dumps(dyn.to_dict()))
gain.write_text(json.dumps({"K": K.tolist()}))
assert lqfit.cli.main(["check-kalman", "--system", str(system),
                       "--gain", str(gain)]) == 0

assert np.isfinite(rollout_cost_estimate(dyn, cost, K, horizon=100, rng_seed=0))
config, rows = Path(tmp) / "config.json", Path(tmp) / "rows.csv"
config.write_text(json.dumps({"N_values": [2], "seeds": [0],
                              "admm": {"n_iter": 10},
                              "expert_eval_horizon": 2000}))
assert lqfit.cli.main(["experiment", "--config", str(config),
                       "--out", str(rows)]) == 0
assert len(rows.read_text().splitlines()) == 5
assert not scipy_modules(), scipy_modules()[:10]
"""


def test_runs_with_scipy_blocked(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(SRC), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert '"verdict": "feasible"' in proc.stdout
