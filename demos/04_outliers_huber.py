"""Sign-flip outliers and the Huber loss.

Each input entry of every demonstration is sign-flipped with probability
0.1.  The quadratic loss chases those outliers; the Huber loss (M = 0.5)
downweights them.  Both fitters run on identical corrupted data.
"""

import math

from lqfit import (AdmmConfig, LossSpec, RegularizerSpec, build_small_random,
                   closed_loop_cost, fit_kalman, generate_demos, policy_fit,
                   solve_lqr)

dyn, cost, sigma = build_small_random(seed=9)
Kstar = solve_lqr(dyn, cost).K
demos = generate_demos(dyn, Kstar, sigma, 20, outlier_prob=0.1, rng_seed=5)

ridge = RegularizerSpec("ridge", 0.01)
huber = LossSpec("huber", huber_m=0.5)


def show(name, K):
    J = closed_loop_cost(dyn, cost, K)
    print(f"{name:<34s} cost = " + ("inf" if math.isinf(J) else f"{J:8.3f}"))


show("plain fit, quadratic loss", policy_fit(demos, LossSpec(), ridge).K)
show("plain fit, huber loss", policy_fit(demos, huber, ridge).K)

rep_q = fit_kalman(demos, LossSpec(), ridge, dyn, AdmmConfig())
show("constrained fit, quadratic loss", rep_q.K_reported)
rep_h = fit_kalman(demos, huber, ridge, dyn, AdmmConfig())
show("constrained fit, huber loss", rep_h.K_reported)

show("optimal gain", Kstar)
