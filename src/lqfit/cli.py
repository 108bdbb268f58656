"""Command line interface.

Subcommands: ``lqr`` (synthesize an optimal gain), ``fit`` (plain policy
fitting), ``fit-kalman`` (constrained fitting via ADMM), ``check-kalman``
(is a given gain optimal? a verdict with its certificate or witness),
``experiment`` (benchmark sweep).  Matrices travel as JSON row-major
nested arrays; exit codes are 0 on success, 1 on configuration errors, 2
on solver failures outside the experiment runner.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bench, fitting, kalman_fit, riccati
from .conic_ls import LossSpec, RegularizerSpec
from .kalman_fit import AdmmConfig
from .linsys import DemoSet, load_system, read_input


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _gain_from_dict(d):
    if "K" not in d:
        raise ValueError("no 'K' matrix")
    return np.array(d["K"], dtype=float)


def _loss_from_args(args) -> LossSpec:
    if args.loss == "huber":
        return LossSpec("huber", huber_m=args.huber_m)
    return LossSpec("quadratic")


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _cmd_lqr(args) -> int:
    dyn, Q, R, _ = load_system(args.system)
    sol = riccati.solve_lqr(dyn, (Q, R))
    _emit({"K": sol.K.tolist(), "P": sol.P.tolist()}, args.out)
    return 0


def _cmd_fit(args) -> int:
    demos = read_input(args.demos, "demos", DemoSet.from_dict)
    report = fitting.policy_fit(demos, _loss_from_args(args),
                                RegularizerSpec("ridge", args.lam))
    _emit({"K": report.K.tolist(), "objective": report.objective}, args.out)
    return 0


def _cmd_fit_kalman(args) -> int:
    dyn = load_system(args.system)[0]
    demos = read_input(args.demos, "demos", DemoSet.from_dict)
    config = AdmmConfig(rho=args.rho, n_iter=args.iters, eps=args.eps)
    report = kalman_fit.fit_kalman(demos, _loss_from_args(args),
                                   RegularizerSpec("ridge", args.lam),
                                   dyn, config)
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_check_kalman(args) -> int:
    dyn = load_system(args.system)[0]
    K = read_input(args.gain, "gain", _gain_from_dict)
    result = riccati.check_kalman_feasible(dyn, K, tol=args.tol)
    _emit(result.to_dict(), args.out)
    return 0


def _cmd_experiment(args) -> int:
    config = (read_input(args.config, "experiment config",
                         bench.config_from_dict)
              if args.config else bench.ExperimentConfig())
    rows, _ = bench.run_experiment(config, args.out)
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


def _add_loss_args(p):
    p.add_argument("--loss", choices=["quadratic", "huber"], default="quadratic")
    p.add_argument("--huber-m", type=float, default=0.5,
                   help="Huber threshold (huber loss only)")
    p.add_argument("--lam", type=float, default=0.01,
                   help="ridge weight on ||K||_F^2")


def build_parser() -> _Parser:
    parser = _Parser(prog="lqfit",
                     description="Learn linear control gains from demonstrations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lqr", help="solve the LQR problem for a system file")
    p.add_argument("--system", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lqr)

    p = sub.add_parser("fit", help="plain policy fit to demonstrations")
    p.add_argument("--demos", required=True)
    _add_loss_args(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("fit-kalman",
                       help="policy fit with the LQR-optimality constraint")
    p.add_argument("--system", required=True)
    p.add_argument("--demos", required=True)
    _add_loss_args(p)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_fit_kalman)

    p = sub.add_parser("check-kalman",
                       help="is a gain LQR-optimal for some cost?")
    p.add_argument("--system", required=True)
    p.add_argument("--gain", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check_kalman)

    p = sub.add_parser("experiment", help="run a benchmark sweep")
    p.add_argument("--config", help="JSON config (defaults to small_random)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as e:
        print(f"lqfit: solver failure: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"lqfit: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
