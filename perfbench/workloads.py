"""The benchmark's workloads: inputs made from a seed, one timed round, checks.

Each workload is a closed loop of rounds; a round makes the same calls every
time, one at a time, each started when the previous one returned.

* ``sweep-small-random``: one ``bench.run_experiment`` call on the
  small_random preset (n=4, m=2), experiment seed 0, N = 1 and 5.
* ``sweep-aircraft``: one ``bench.run_experiment`` call on the 747 preset,
  experiment seeds 0 and 1, N = 1.  Cell (0, 1) fails every time (Riccati
  re-solve, see README).
* ``check-optimality``: ``riccati.check_kalman_feasible`` on a batch of
  gains.  Unit-weight and zero-dynamics gains come from the seed; the gain
  classes whose decision time is heavy-tailed (0.02 s to 10 s per gain)
  come from a fixed panel, so that one batch time is comparable between
  runs.

The sweeps' inputs do not depend on the seed: between systems one cell's
cost ratio moves by up to 4x, which two cells a round cannot average out;
and on the 747, 7 of 12 cells drawn with other seeds fail the way cell
(0, 1) does, which would make the share of failed operations differ
between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from lqfit import (LinearDynamics, bench, build_aircraft,
                   build_small_random, riccati, solve_lqr)

# Seed of the fixed gain panel of the check-optimality workload.
PANEL_SEED = 0


@dataclass
class Outcome:
    """Operations one round attempted, how many failed, and what they cost."""

    attempted: int = 0
    failed: int = 0
    ratios: list = field(default_factory=list)
    errors: list = field(default_factory=list)


# ---------------------------------------------------------------- sweeps

@dataclass(frozen=True)
class SweepInputs:
    config: object
    out_dir: Path


class Sweep:
    min_rounds = 2  # the CSV of a round is compared with the first round's

    def __init__(self, experiment, seeds, N_values):
        self.experiment = experiment
        self.seeds = seeds
        self.N_values = N_values

    def build(self, seed, out_dir):
        config = bench.default_config(self.experiment, seeds=self.seeds,
                                      N_values=self.N_values)
        return SweepInputs(config, Path(out_dir))

    def csv_path(self, inputs, k):
        return inputs.out_dir / f"{inputs.config.experiment}-{k}.csv"

    def run_round(self, inputs, k):
        rows, _ = bench.run_experiment(inputs.config, self.csv_path(inputs, k))
        return rows

    def check_round(self, inputs, k, rows):
        out = Outcome()
        first = self.csv_path(inputs, 0).read_bytes()
        out.errors += checks.check_same_bytes(
            first, self.csv_path(inputs, k).read_bytes(), f"round {k}")
        by_cell = {}
        for row in rows:
            by_cell.setdefault((row.seed, row.N), {})[row.method] = row
        refs = {}
        for (seed, N), cell in sorted(by_cell.items()):
            label = f"{self.experiment} seed={seed} N={N}"
            if seed not in refs:
                refs[seed] = self._references(
                    seed, inputs.config.expert_eval_horizon)
            ref, errors = refs[seed]
            out.errors += errors
            out.errors += checks.check_optimal_cost(
                cell["optimal"].cost, ref["optimal"], label)
            out.errors += checks.check_expert_rollout(
                cell["expert"].cost, ref["expert"], ref["spread"], label)
            if abs(cell["expert"].spectral_radius - ref["radius"]) > 1e-8:
                out.errors.append(f"{label}: expert closed loop differs from "
                                  f"scipy's DARE gain")
            for method in ("pf", "kalman"):
                out.errors += checks.check_not_below_optimal(
                    method, cell[method].cost, cell["optimal"].cost, label)
            out.attempted += 1
            kalman = cell["kalman"]
            if not kalman.finite:
                out.failed += 1
            out.ratios.append(kalman.cost / cell["optimal"].cost
                              if kalman.finite else math.inf)
        return out

    def _references(self, seed, horizon):
        if self.experiment == "aircraft":
            dyn, cost, sigma = build_aircraft()
        else:
            dyn, cost, sigma = build_small_random(seed)
        A, B, W, Q, R = dyn.A, dyn.B, dyn.W, cost.Q, cost.R
        K, _ = checks.dare_gain(A, B, Q, R)
        errors = checks.check_expert_gain(solve_lqr(dyn, cost).K, K,
                                          f"{self.experiment} seed={seed}")
        expert, spread = checks.rollout_spread(A, B, W, Q, R, K, sigma,
                                               horizon)
        ref = {"optimal": checks.average_cost(A, B, W, Q, R, K),
               "expert": expert, "spread": spread,
               "radius": float(np.abs(np.linalg.eigvals(A + B @ K)).max())}
        return ref, errors


# ---------------------------------------------------------------- check

@dataclass(frozen=True, eq=False)
class GainCase:
    """A gain whose verdict its class proves: "zero-dynamics" and "unstable"
    gains are infeasible, every other class is optimal by construction."""

    cls: str
    dyn: LinearDynamics
    K: np.ndarray


GAIN_CLASSES = ("unit", "random-weight", "zero-dynamics", "unstable",
                "aircraft-nonunit")


def _random_system(rng):
    dyn, _, _ = build_small_random(int(rng.integers(2**31)))
    return dyn


def _optimal_case(cls, dyn, Q, R):
    K, _ = checks.dare_gain(dyn.A, dyn.B, Q, R)
    return GainCase(cls, dyn, K)


def _spd(rng, k, rank):
    G = rng.standard_normal((k, rank))
    return G @ G.T


def gain_batch(seed):
    """The check-optimality batch: 12 gains in five classes."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    panel = np.random.default_rng(PANEL_SEED)
    cases = []
    for _ in range(4):
        cases.append(_optimal_case("unit", _random_system(rng),
                                   np.eye(4), np.eye(2)))
    for _ in range(3):
        dyn = _random_system(rng)
        cases.append(GainCase("zero-dynamics",
                              replace(dyn, A=np.zeros((4, 4))),
                              rng.standard_normal((2, 4))))
    for _ in range(3):
        cases.append(_optimal_case("random-weight", _random_system(panel),
                                   _spd(panel, 4, 4),
                                   np.eye(2) + _spd(panel, 2, 2)))
    dyn = _random_system(panel)
    while True:
        K = panel.standard_normal((2, 4))
        if checks.unstable_mode_gain(dyn.A, dyn.B, K) > 1e-3:
            break
    cases.append(GainCase("unstable", dyn, K))
    aircraft, _, _ = build_aircraft()
    cases.append(_optimal_case("aircraft-nonunit", aircraft,
                               np.diag([1.0, 1.0, 10.0, 10.0]), np.eye(2)))
    return cases


class CheckBatch:
    min_rounds = 1

    def build(self, seed, out_dir):
        return gain_batch(seed)

    def run_round(self, cases, k):
        return [riccati.check_kalman_feasible(c.dyn, c.K) for c in cases]

    def check_round(self, cases, k, results):
        out = Outcome()
        for i, (case, result) in enumerate(zip(cases, results)):
            A, B = case.dyn.A, case.dyn.B
            label = f"gain {i} ({case.cls})"
            out.attempted += 1
            if case.cls == "zero-dynamics":
                out.errors += checks.check_zero_dynamics_answer(
                    A, B, case.K, result, label)
            elif case.cls == "unstable":
                out.errors += checks.check_unstable_answer(
                    A, B, case.K, result, label)
            elif result.feasible:
                out.errors += checks.check_feasible_answer(
                    A, B, case.K, result, label)
                out.ratios.append(checks.certified_cost_ratio(
                    A, B, case.dyn.W, case.K, result.certificate))
            else:
                out.failed += 1  # optimal by construction, answered infeasible
        return out


WORKLOADS = {
    "sweep-small-random": Sweep("small_random", seeds=(0,), N_values=(1, 5)),
    "sweep-aircraft": Sweep("aircraft", seeds=(0, 1), N_values=(1,)),
    "check-optimality": CheckBatch(),
}
