"""Experiment harness: imperfect-LQR and outlier benchmarks, CSV/JSON output.

Reproduces the demonstration-count sweeps: build a system, synthesize the
expert gain from the true cost, draw noisy demonstrations, fit a gain with
and without the optimality constraint, and evaluate everything under the
true cost.  Four experiments:

* ``small_random`` - n=4, m=2, standard normal (A, B) with A rescaled to
  spectral radius one, Q = R = I, W = 0.25 I, Sigma = 4 I;
* ``aircraft`` - linearized 747 level-flight model, Q = R = I,
  Sigma = 25 I;
* ``outliers`` - the small random setup with sign-flip probability 0.1 on
  every input entry and Huber loss (M = 0.5);
* ``custom`` - system loaded from a JSON file.

Results go to a CSV (one row per seed/N/method) plus a JSON summary of
per-N mean finite costs and fractions finite.  Everything is seeded, so a
re-run with the same config is byte-identical.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import fitting, kalman_fit, riccati
from .conic_ls import LossSpec, RegularizerSpec, project_psd
from .kalman_fit import AdmmConfig
from .linsys import (STABILITY_MARGIN, CostMatrices, LinearDynamics,
                     _check_count, _check_real, closed_loop_cost,
                     generate_demos, load_system, rollout_cost_estimate,
                     spectral_radius)

EXPERIMENTS = ("small_random", "aircraft", "outliers", "custom")
METHODS = ("pf", "kalman", "expert", "optimal")

CSV_HEADER = "experiment,N,seed,method,cost,finite,spectral_radius,kalman_residual"


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "small_random"
    N_values: tuple = (1, 2, 3, 4, 5, 7, 10, 15, 20)
    seeds: tuple = tuple(range(10))
    outlier_prob: float = 0.0
    loss: LossSpec = LossSpec("quadratic")
    reg: RegularizerSpec = RegularizerSpec("ridge", 0.01)
    admm: AdmmConfig = AdmmConfig()
    dynamics_path: str | None = None
    expert_eval_horizon: int = 100_000

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.experiment == "custom" and not self.dynamics_path:
            raise ValueError("custom experiment requires dynamics_path")
        for name, least in (("N_values", 1), ("seeds", 0)):
            values = tuple(_check_count(v, name, least)
                           for v in getattr(self, name))
            if not values:
                raise ValueError(f"{name} must be nonempty")
            object.__setattr__(self, name, values)
        _check_count(self.expert_eval_horizon, "expert_eval_horizon", 1)
        _check_real(self.outlier_prob, "outlier_prob", 0.0, most=1.0)


@dataclass(frozen=True, eq=False)
class ResultRow:
    experiment: str
    N: int
    seed: int
    method: str
    cost: float
    finite: bool
    spectral_radius: float
    kalman_residual: float | None = None

    def to_csv(self) -> str:
        resid = "" if self.kalman_residual is None else repr(self.kalman_residual)
        return (f"{self.experiment},{self.N},{self.seed},{self.method},"
                f"{self.cost!r},{'true' if self.finite else 'false'},"
                f"{self.spectral_radius!r},{resid}")


def default_config(experiment: str, **overrides) -> ExperimentConfig:
    """Experiment presets; keyword overrides are applied on top."""
    base = {"experiment": experiment}
    if experiment == "outliers":
        base.update(outlier_prob=0.1, loss=LossSpec("huber", huber_m=0.5))
    base.update(overrides)
    return ExperimentConfig(**base)


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build a config from parsed JSON, starting from the experiment preset;
    its fields are ExperimentConfig's, and loss, reg and admm are objects."""
    unknown = set(d) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    kwargs = dict(d)
    for key, spec in (("loss", LossSpec), ("reg", RegularizerSpec),
                      ("admm", AdmmConfig)):
        if key in kwargs:
            kwargs[key] = spec(**kwargs[key])
    return default_config(kwargs.pop("experiment", "small_random"), **kwargs)


def build_small_random(seed) -> tuple[LinearDynamics, CostMatrices, np.ndarray]:
    """Random 4-state/2-input system with A rescaled to spectral radius one."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4, 4))
    A = A / spectral_radius(A)
    B = rng.standard_normal((4, 2))
    dyn = LinearDynamics(A=A, B=B, W=0.25 * np.eye(4))
    return dyn, CostMatrices(Q=np.eye(4), R=np.eye(2)), 4.0 * np.eye(2)


# 747 in level flight at 40000 ft, 774 ft/s; states (u, v, q, theta),
# inputs (elevator, thrust), discretized at 0.01 s.
_AIRCRAFT_A = [[1.0, 0.039, 0.0, -0.322],
               [-0.065, 0.997, 7.74, 0.0],
               [0.02, -0.101, 0.996, 0.0],
               [0.0, 0.0, 1.0, 1.0]]
_AIRCRAFT_B = [[0.0001, 0.0],
               [-0.0018, -0.0004],
               [-0.0116, 0.00598],
               [0.0, 0.0]]
_AIRCRAFT_W = [[0.100, -0.003, 0.002, 0.0],
               [-0.003, 0.1, -0.010, 0.0],
               [0.002, -0.010, 0.001, 0.0],
               [0.0, 0.0, 0.0, 0.0]]


def build_aircraft() -> tuple[LinearDynamics, CostMatrices, np.ndarray]:
    """The 747 model with wind covariance W, Q = R = I, Sigma = 25 I.

    The three-decimal wind covariance as printed is indefinite at the
    1e-5 level (a rounding artifact), so its active 3x3 block is projected
    onto the PSD cone; the zero row/column is preserved exactly.
    """
    W = np.array(_AIRCRAFT_W)
    W[:3, :3] = project_psd(W[:3, :3], 0.0)
    dyn = LinearDynamics(A=np.array(_AIRCRAFT_A), B=np.array(_AIRCRAFT_B), W=W)
    return dyn, CostMatrices(Q=np.eye(4), R=np.eye(2)), 25.0 * np.eye(2)


def _build_system(config: ExperimentConfig, seed: int):
    if config.experiment in ("small_random", "outliers"):
        dyn, cost, sigma = build_small_random(seed)
    elif config.experiment == "aircraft":
        dyn, cost, sigma = build_aircraft()
    else:
        # not CostMatrices: R > 0 is enough, R >= I is the fitter's scaling
        dyn, Q, R, sigma = load_system(config.dynamics_path)
        cost = (Q, R)
    return dyn, cost, sigma


def _derived_seed(*parts) -> np.random.SeedSequence:
    return np.random.SeedSequence(tuple(int(p) for p in parts))


def _cell_demos(config: ExperimentConfig, dyn, Kstar, sigma, seed: int,
                N: int):
    return generate_demos(dyn, Kstar, sigma, N, config.outlier_prob,
                          rng_seed=_derived_seed(seed, N, 1))


def _gain_row(config: ExperimentConfig, dyn, cost, seed: int, N: int,
              method: str, K, **extra) -> ResultRow:
    """The row of a fitted gain K: its cost under the true cost, its
    spectral radius and whether it is finite; ``extra`` fills the row's
    other fields."""
    sr = spectral_radius(dyn.closed_loop(K))
    return ResultRow(config.experiment, N, seed, method,
                     closed_loop_cost(dyn, cost, K),
                     finite=sr < STABILITY_MARGIN, spectral_radius=sr, **extra)


def _pf_row(config: ExperimentConfig, dyn, cost, demos, seed: int,
            N: int) -> ResultRow:
    name = config.experiment
    try:
        pf = fitting.policy_fit(demos, config.loss, config.reg)
        return _gain_row(config, dyn, cost, seed, N, "pf", pf.K)
    except Exception as e:  # recorded, not fatal
        print(f"warning: pf failed at seed={seed} N={N}: {e}", file=sys.stderr)
        return ResultRow(name, N, seed, "pf", math.inf, False, math.inf)


def _kalman_row(config: ExperimentConfig, dyn, cost, seed: int, N: int,
                fit):
    """The kalman row of a cell from its fit, a report or the exception
    the fit raised; returns (row, report), with report None when the fit
    or the evaluation of its gain failed.  The row evaluates the report's
    ``K_reported``."""
    if not isinstance(fit, Exception):
        if fit.K_certified is None:
            print(f"warning: certified re-solve failed at seed={seed} N={N}; "
                  "evaluating the fitted gain", file=sys.stderr)
        try:
            return _gain_row(config, dyn, cost, seed, N, "kalman",
                             fit.K_reported,
                             kalman_residual=fit.certificate.residual), fit
        except Exception as e:  # recorded, not fatal
            fit = e
    print(f"warning: kalman fit failed at seed={seed} N={N}: {fit}",
          file=sys.stderr)
    return ResultRow(config.experiment, N, seed, "kalman", math.inf, False,
                     math.inf), None


def run_cell(config: ExperimentConfig, dyn, cost, sigma, Kstar, seed: int,
             N: int):
    """Fit both methods on one (seed, N) cell, as ``run_experiment`` does
    for each of its cells.

    Returns (pf_row, kalman_row, demos, report); report is None when the
    Kalman fit failed, and the failure is printed to stderr.
    """
    demos = _cell_demos(config, dyn, Kstar, sigma, seed, N)
    pf_row = _pf_row(config, dyn, cost, demos, seed, N)
    fit, = kalman_fit.fit_kalman_batch([(demos, dyn)], config.loss,
                                       config.reg, config.admm)
    kalman_row, report = _kalman_row(config, dyn, cost, seed, N, fit)
    return pf_row, kalman_row, demos, report


def run_experiment(config: ExperimentConfig, output_path=None):
    """Full sweep over seeds and demonstration counts.

    Builds each system and solves its expert once (a small random system
    once per seed, the others once per sweep) and estimates the expert's
    cost by a rollout per seed.  Draws every cell's demonstrations and fits
    its plain policy, then runs the Kalman fits of all cells in one
    lockstep batch (``kalman_fit.fit_kalman_batch``); every row is the one
    ``run_cell`` gives for its cell, and a failed fit fails only its own
    cell.  Returns the list of ResultRows and the summary dict; when
    ``output_path`` is given, writes ``<output_path>`` as CSV and the
    summary next to it with a ``_summary.json`` suffix.
    """
    name = config.experiment
    cells, setups = [], {}
    for seed in config.seeds:
        # only the small random systems depend on the seed
        key = seed if name in ("small_random", "outliers") else None
        if key not in setups:
            dyn, cost, sigma = _build_system(config, seed)
            Kstar = riccati.solve_lqr(dyn, cost).K
            setups[key] = (dyn, cost, sigma, Kstar,
                           spectral_radius(dyn.closed_loop(Kstar)),
                           closed_loop_cost(dyn, cost, Kstar))
        dyn, cost, sigma, Kstar, sr_star, optimal_cost = setups[key]
        expert_cost = rollout_cost_estimate(
            dyn, cost, Kstar, horizon=config.expert_eval_horizon,
            rng_seed=_derived_seed(seed, 0, 2), input_noise_cov=sigma)
        for N in config.N_values:
            demos = _cell_demos(config, dyn, Kstar, sigma, seed, N)
            reference = [ResultRow(name, N, seed, "expert", expert_cost,
                                   True, sr_star),
                         ResultRow(name, N, seed, "optimal", optimal_cost,
                                   finite=sr_star < STABILITY_MARGIN,
                                   spectral_radius=sr_star)]
            cells.append((seed, N, dyn, cost, demos,
                          _pf_row(config, dyn, cost, demos, seed, N),
                          reference))
    fits = kalman_fit.fit_kalman_batch(
        [(demos, dyn) for _, _, dyn, _, demos, _, _ in cells], config.loss,
        config.reg, config.admm)
    rows = []
    for (seed, N, dyn, cost, _, pf_row, reference), fit in zip(cells, fits):
        rows.append(pf_row)
        rows.append(_kalman_row(config, dyn, cost, seed, N, fit)[0])
        rows.extend(reference)
    summary = summarize(config.experiment, rows)
    if output_path is not None:
        write_csv(rows, output_path)
        write_summary(summary, _summary_path(output_path))
    return rows, summary


def summarize(experiment: str, rows) -> dict:
    per_N = {}
    for row in rows:
        bucket = per_N.setdefault(row.N, {m: [] for m in METHODS})
        bucket[row.method].append(row)
    out = []
    for N in sorted(per_N):
        mean_cost = {}
        fraction_finite = {}
        for method in METHODS:
            cells = per_N[N][method]
            finite = [r.cost for r in cells if r.finite]
            mean_cost[method] = (sum(finite) / len(finite)) if finite else None
            fraction_finite[method] = (len(finite) / len(cells)) if cells else 0.0
        out.append({"N": N, "mean_cost": mean_cost,
                    "fraction_finite": fraction_finite})
    return {"experiment": experiment, "per_N": out}


def _summary_path(output_path) -> str:
    path = str(output_path)
    if path.endswith(".csv"):
        path = path[:-4]
    return path + "_summary.json"


def write_csv(rows, path) -> None:
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for row in rows:
            f.write(row.to_csv() + "\n")


def write_summary(summary: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")
