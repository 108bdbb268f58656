"""A miniature benchmark sweep with CSV/JSON output.

Runs the small-random experiment over a few seeds and demonstration
counts, then prints the per-N summary.  The same sweep is available from
the command line:

    lqfit experiment --config config.json --out results.csv

with a JSON config mirroring ExperimentConfig.
"""

import tempfile
from pathlib import Path

from lqfit import ExperimentConfig, run_experiment
from lqfit.kalman_fit import AdmmConfig

config = ExperimentConfig(
    experiment="small_random",
    N_values=(1, 2, 5, 10),
    seeds=(0, 1, 2),
    admm=AdmmConfig(n_iter=60),
    expert_eval_horizon=50_000,
)

out = Path(tempfile.mkdtemp()) / "sweep.csv"
rows, summary = run_experiment(config, out)
print(f"wrote {len(rows)} rows to {out}\n")

print(" N   mean cost: pf        kalman    expert    optimal   finite(pf)")
for entry in summary["per_N"]:
    mc = entry["mean_cost"]
    pf = "   inf   " if mc["pf"] is None else f"{mc['pf']:9.3f}"
    print(f"{entry['N']:3d}  {pf} {mc['kalman']:9.3f} {mc['expert']:9.3f}"
          f" {mc['optimal']:9.3f}   {entry['fraction_finite']['pf']:.2f}")

print("\nfraction finite, kalman:",
      [entry["fraction_finite"]["kalman"] for entry in summary["per_N"]])
