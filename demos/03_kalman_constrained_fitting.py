"""Policy fitting with an LQR-optimality constraint on scarce data.

Same setup as demo 02 at N = 2 demonstrations, now requiring the fitted
gain to be optimal for *some* quadratic cost.  The ADMM heuristic returns
the fitted gain, a (P, Q, R) certificate, and a certified gain
re-synthesized from the recovered cost, which inherits LQR stability.
"""

import math

import numpy as np

from lqfit import (AdmmConfig, LossSpec, RegularizerSpec, build_small_random,
                   closed_loop_cost, fit_kalman, generate_demos, policy_fit,
                   solve_lqr)
from lqfit.linsys import spectral_radius

dyn, cost, sigma = build_small_random(seed=3)
Kstar = solve_lqr(dyn, cost).K
demos = generate_demos(dyn, Kstar, sigma, 2, outlier_prob=0.0, rng_seed=(7, 2))

pf = policy_fit(demos)
J_pf = closed_loop_cost(dyn, cost, pf.K)
print("plain fit:        cost =",
      "inf" if math.isinf(J_pf) else round(J_pf, 3),
      " rho =", round(spectral_radius(dyn.closed_loop(pf.K)), 3))

report = fit_kalman(demos, LossSpec("quadratic"),
                    RegularizerSpec("ridge", 0.01), dyn, AdmmConfig())
for name, K in (("constrained fit", report.K),
                ("certified gain", report.K_certified)):
    J = closed_loop_cost(dyn, cost, K)
    print(f"{name + ':':<18s}cost =",
          "inf" if math.isinf(J) else round(J, 3),
          " rho =", round(spectral_radius(dyn.closed_loop(K)), 3))

print("\noptimal cost:", round(closed_loop_cost(dyn, cost, Kstar), 3))
print("constraint residual:", f"{report.certificate.residual:.2e}",
      " converged:", report.converged,
      " winning start:", report.init_index)
print("\nrecovered state weights (eigenvalues of Q):",
      np.round(np.linalg.eigvalsh(report.certificate.Q), 3))
print("recovered input weights (eigenvalues of R):",
      np.round(np.linalg.eigvalsh(report.certificate.R), 3))
print("\n(The recovered cost is one of many witnesses; it need not match")
print("the expert's true weights, but the certified gain it induces is")
print("optimal for it, hence stabilizing.)")
