"""Show the two faults the benchmark keeps as failing operations.

    python3 perfbench/faults.py a    # Riccati re-solve fails on the 747
    python3 perfbench/faults.py b    # feasible 747 gains answered infeasible

Each prints what lqfit returns next to what scipy finds for the same
equation.  Run from the root of the repository.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from lqfit import (ConvergenceError, bench, check_kalman_feasible,  # noqa: E402
                   closed_loop_cost, solve_lqr, spectral_radius)


def fault_a():
    """Aircraft seed 0, N = 1: the certified re-solve raises, the row is inf."""
    config = bench.default_config("aircraft", seeds=(0,), N_values=(1,))
    dyn, cost, sigma = bench.build_aircraft()
    expert = solve_lqr(dyn, cost).K
    _, row, _, report = bench.run_cell(config, dyn, cost, sigma, expert, 0, 1)
    Q, R = report.certificate.Q, report.certificate.R
    print(f"kalman row: cost {row.cost}, spectral radius {row.spectral_radius:.3f}"
          f", K_certified {'None' if report.K_certified is None else 'set'}")
    print(f"recovered Q eigenvalues {np.linalg.eigvalsh(Q)}")
    try:
        solve_lqr(dyn, (Q, R))
        print("solve_lqr: converged")
    except ConvergenceError as e:
        print(f"solve_lqr: {e}")
    K, _ = checks.dare_gain(dyn.A, dyn.B, Q, R)
    print(f"scipy DARE gain: spectral radius {spectral_radius(dyn.closed_loop(K)):.4f}"
          f", cost {closed_loop_cost(dyn, cost, K):.1f} against the optimum "
          f"{closed_loop_cost(dyn, cost, expert):.1f}")


def fault_b():
    """747 gains optimal for non-unit weights are answered infeasible."""
    dyn, _, _ = bench.build_aircraft()
    for Q, R in ((np.diag([1.0, 1.0, 10.0, 10.0]), np.eye(2)),
                 (np.eye(4), 2.0 * np.eye(2))):
        K, P = checks.dare_gain(dyn.A, dyn.B, Q, R)
        t0 = time.perf_counter()
        result = check_kalman_feasible(dyn, K)
        seconds = time.perf_counter() - t0
        print(f"Q diag {np.diag(Q)}, R diag {np.diag(R)}: feasible "
              f"{result.feasible} after {result.iterations} iterations, "
              f"{seconds:.1f} s, residual {result.certificate.residual:.3g}, "
              f"tol {result.tol:.3g}; scipy's P residual "
              f"{checks.stacked_residual(dyn.A, dyn.B, K, P, Q, R):.3g}")


if __name__ == "__main__":
    if sys.argv[1:] not in (["a"], ["b"]):
        sys.exit(__doc__)
    fault_a() if sys.argv[1] == "a" else fault_b()
