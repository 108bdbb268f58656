"""lqfit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep-small-random --seed 1 \
        --seconds 20 --trace 0

runs rounds of the workload for at least ``--seconds`` (and at least the
workload's minimum number of rounds), checks every output against scipy or
a property the method must have, and prints one JSON object as the last
line of standard output.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run.  ``--workload all``
runs every workload, untraced and traced, one process each.

The package is imported from ``src/`` of this checkout, in one process with
BLAS pinned to one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170


def _import_lqfit():
    """Import lqfit from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import lqfit
    except ImportError as e:
        sys.exit(f"cannot import lqfit from {ROOT / 'src'}: {e}")
    if Path(lqfit.__file__).resolve().parent != ROOT / "src" / "lqfit":
        sys.exit(f"lqfit was imported from {lqfit.__file__}, not this checkout")


_import_lqfit()

import layers  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, CheckBatch  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "kalman_cost_ratio": "1",
                    "peak_rss_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _measure_setup(args) -> float:
    """Median time of fresh interpreters that import lqfit and build the
    workload's inputs: the wait before the first call can start.  Each wall
    time is rescaled by the host speed measured just before and after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    return statistics.median(
        speed.rescaled_between(subprocess.run, cmd, cwd=ROOT, check=True,
                               timeout=CHILD_TIMEOUT_S,
                               stdout=subprocess.DEVNULL)
        for _ in range(SETUP_PROBES))


def _emit(result: dict) -> None:
    for name, value in result["metrics"].items():
        print(f"{name} = {value['value']:.6g} {value['unit']}")
    print(f"attempted = {result['attempted']}, failed = {result['failed']}, "
          f"correct = {str(result['correct']).lower()}")
    print(json.dumps(result))


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    inputs = workload.build(args.seed, OUT_DIR)
    if args.setup_probe:
        return {}
    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder()
        layers.install(recorder)
    else:
        setup_s = _measure_setup(args)
    outputs, walls, rescaled = [], [], []
    t_start = time.perf_counter()
    # The traced run measures raw times, uninterrupted by the speed probe.
    probe = speed.SpeedProbe() if recorder is None else contextlib.nullcontext()
    try:
        with probe:
            while (len(outputs) < workload.min_rounds
                   or time.perf_counter() - t_start < args.seconds):
                k = len(outputs)
                if recorder is None:
                    output, wall, scaled = probe.timed(
                        workload.run_round, inputs, k)
                    rescaled.append(scaled)
                else:
                    t0 = time.perf_counter()
                    output = workload.run_round(inputs, k)
                    wall = time.perf_counter() - t0
                outputs.append(output)
                walls.append(wall)
    finally:
        if recorder is not None:
            recorder.restore()

    attempted = failed = 0
    ratios, errors = [], []
    for k, output in enumerate(outputs):
        outcome = workload.check_round(inputs, k, output)
        attempted += outcome.attempted
        failed += outcome.failed
        ratios += outcome.ratios
        errors += outcome.errors
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    if recorder is None:
        # a failed operation counts as infinitely costly; JSON has no
        # infinity, so more than half failed reads as 1e300
        ratio = statistics.median_low(ratios) if ratios else math.inf
        print(f"round wall time = {statistics.median(walls):.6g} s "
              f"(median of {len(walls)}, not rescaled)")
        values = {"setup_s": setup_s, "round_s": statistics.median(rescaled),
                  "kalman_cost_ratio": ratio if math.isfinite(ratio) else 1e300,
                  "peak_rss_mb":
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END_UNITS
    else:
        classes = ([c.cls for c in inputs] if isinstance(workload, CheckBatch)
                   else [])
        values = layers.metrics(recorder, len(outputs), classes,
                                spans.per_span_overhead())
        units = dict(layers.METRICS)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()}}


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} exited with {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            summary[f"{name}/trace={trace}"] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    if result:
        _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
