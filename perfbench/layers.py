"""Per-layer metrics from a traced run.

Each layer entry point is wrapped under the module attribute its caller
looks up: ``bench`` binds ``closed_loop_cost``, ``generate_demos`` and
``rollout_cost_estimate`` by ``from``-import, so those are wrapped inside
``lqfit.bench``; ``admm_iterate`` is looked up in ``lqfit.kalman_fit``;
``solve_pqr_step`` and ``solve_k_step`` in ``lqfit.conic_ls``.
"""

from __future__ import annotations

import statistics

from lqfit import bench, conic_ls, fitting, kalman_fit, riccati

import spans
from workloads import GAIN_CLASSES

CHECK_MAX_ITER = 20_000  # check_kalman_feasible's default iteration cap
PQR_MAX_ITER = 4000      # solve_pqr_step's default iteration cap

# (per-layer metric, unit) in the order they are printed.
METRICS = [
    ("kalman_fit.fit_kalman_s", "s"),
    ("kalman_fit.admm_iterations", "count"),
    ("kalman_fit.admm_iterate_ms", "ms"),
    ("kalman_fit.certificate_residual", "1"),
    ("kalman_fit.certified_fits", "count"),
    ("conic_ls.pqr_step_ms", "ms"),
    ("conic_ls.pqr_self_share", "1"),
    ("conic_ls.pqr_iterations", "count"),
    ("conic_ls.pqr_capped", "count"),
    ("conic_ls.k_step_ms", "ms"),
    ("riccati.solve_lqr_ms", "ms"),
    ("riccati.solve_lqr_failures", "count"),
    *[(f"riccati.check_ms.{c}", "ms") for c in GAIN_CLASSES],
    *[(f"riccati.check_iterations.{c}", "count") for c in GAIN_CLASSES],
    ("riccati.check_capped", "count"),
    ("linsys.rollout_s", "s"),
    ("linsys.closed_loop_cost_ms", "ms"),
    ("linsys.generate_demos_ms", "ms"),
    ("fitting.policy_fit_ms", "ms"),
    ("bench.run_cell_s", "s"),
    ("trace.overhead_s", "s"),
]


def _note_fit(info, args, kwargs, report):
    info["residual"] = report.certificate.residual
    info["certified"] = report.K_certified is not None


def _note_pqr(info, args, kwargs, step):
    info["iterations"] = step.iterations
    info["capped"] = step.iterations >= kwargs.get("max_iter", PQR_MAX_ITER)


def _note_check(info, args, kwargs, result):
    info["iterations"] = result.iterations
    info["capped"] = result.iterations >= kwargs.get("max_iter", CHECK_MAX_ITER)


def install(recorder: spans.SpanRecorder) -> None:
    """Wrap every layer entry point the workloads reach."""
    recorder.patch(bench, "run_experiment", "bench.run_experiment")
    recorder.patch(bench, "run_cell", "bench.run_cell")
    recorder.patch(bench, "closed_loop_cost", "linsys.closed_loop_cost")
    recorder.patch(bench, "generate_demos", "linsys.generate_demos")
    recorder.patch(bench, "rollout_cost_estimate", "linsys.rollout_cost_estimate")
    recorder.patch(fitting, "policy_fit", "fitting.policy_fit")
    recorder.patch(kalman_fit, "fit_kalman", "kalman_fit.fit_kalman", _note_fit)
    recorder.patch(kalman_fit, "admm_iterate", "kalman_fit.admm_iterate")
    recorder.patch(conic_ls, "solve_pqr_step", "conic_ls.solve_pqr_step", _note_pqr)
    recorder.patch(conic_ls, "solve_k_step", "conic_ls.solve_k_step")
    recorder.patch(riccati, "solve_lqr", "riccati.solve_lqr")
    recorder.patch(riccati, "check_kalman_feasible",
                   "riccati.check_kalman_feasible", _note_check)


def _median(values, scale=1.0):
    return scale * statistics.median(values) if values else 0.0


def metrics(recorder: spans.SpanRecorder, rounds: int, check_classes,
            span_cost: float) -> dict:
    """Per-layer metrics; counts are per round (every round is the same).

    ``check_classes`` gives the gain class of each feasibility check of one
    round, in call order.
    """
    dur = {}
    for s in recorder.spans:
        dur.setdefault(s.name, []).append(s.duration)
    fits = recorder.named("kalman_fit.fit_kalman")
    pqr = recorder.named("conic_ls.solve_pqr_step")
    lqr = recorder.named("riccati.solve_lqr")
    check = recorder.named("riccati.check_kalman_feasible")
    self_t = recorder.self_times()
    root_time = sum(s.duration for s in recorder.spans if s.parent is None)
    pqr_self = sum(t for s, t in zip(recorder.spans, self_t)
                   if s.name == "conic_ls.solve_pqr_step")
    done = [s for s in fits if "residual" in s.info]
    out = {
        "kalman_fit.fit_kalman_s": _median(dur.get("kalman_fit.fit_kalman")),
        "kalman_fit.admm_iterations":
            len(dur.get("kalman_fit.admm_iterate", [])) / len(fits) if fits else 0.0,
        "kalman_fit.admm_iterate_ms": _median(dur.get("kalman_fit.admm_iterate"), 1e3),
        "kalman_fit.certificate_residual": _median([s.info["residual"] for s in done]),
        "kalman_fit.certified_fits": sum(s.info["certified"] for s in done) / rounds,
        "conic_ls.pqr_step_ms": _median(dur.get("conic_ls.solve_pqr_step"), 1e3),
        "conic_ls.pqr_self_share": pqr_self / root_time if root_time else 0.0,
        "conic_ls.pqr_iterations":
            statistics.fmean(s.info["iterations"] for s in pqr) if pqr else 0.0,
        "conic_ls.pqr_capped": sum(s.info["capped"] for s in pqr) / rounds,
        "conic_ls.k_step_ms": _median(dur.get("conic_ls.solve_k_step"), 1e3),
        "riccati.solve_lqr_ms": _median(dur.get("riccati.solve_lqr"), 1e3),
        "riccati.solve_lqr_failures": sum("error" in s.info for s in lqr) / rounds,
    }
    by_class = {c: [] for c in GAIN_CLASSES}
    for i, s in enumerate(check):
        by_class[check_classes[i % len(check_classes)]].append(s)
    for c in GAIN_CLASSES:
        out[f"riccati.check_ms.{c}"] = _median([s.duration for s in by_class[c]], 1e3)
    for c in GAIN_CLASSES:
        out[f"riccati.check_iterations.{c}"] = _median(
            [s.info["iterations"] for s in by_class[c]])
    out["riccati.check_capped"] = sum(s.info["capped"] for s in check) / rounds
    out["linsys.rollout_s"] = _median(dur.get("linsys.rollout_cost_estimate"))
    out["linsys.closed_loop_cost_ms"] = _median(dur.get("linsys.closed_loop_cost"), 1e3)
    out["linsys.generate_demos_ms"] = _median(dur.get("linsys.generate_demos"), 1e3)
    out["fitting.policy_fit_ms"] = _median(dur.get("fitting.policy_fit"), 1e3)
    out["bench.run_cell_s"] = _median(dur.get("bench.run_cell"))
    out["trace.overhead_s"] = len(recorder.spans) / rounds * span_cost
    return out
