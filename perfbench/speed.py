"""Host speed, sampled during timed calls, to rescale their wall times.

The benchmark shares its machine with other jobs, and there the same fixed
work runs at a speed that wanders by 20-40% over seconds to minutes, in CPU
time as much as in wall time.  A ``SpeedProbe`` samples that speed while a
call runs: a SIGALRM handler runs a fixed reference kernel (small dense
eigen-decompositions, solves and products in a Python loop, the kind of
work lqfit does) every ``INTERVAL_S`` and records how long it took.  A
call's time is then its wall time without the probe's own time, rescaled to
the speed at which the kernel takes ``NOMINAL_S``:

    rescaled = (wall - probe time) * mean(NOMINAL_S / kernel time)

The mean of the sampled speeds is the call's mean speed, so the rescaled
time measures the work the call did, and a call that needs less work reads
less whatever the host's speed.  The kernel does not touch lqfit.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25   # wait between two samples
KERNEL_PASSES = 30  # passes over the matrices in one sample, about 15 ms
BRACKET_SAMPLES = 10  # samples on each side of a call the probe cannot enter
# The kernel's time at the speed rescaled times refer to: its typical time
# on the 2-CPU machine of the README's reference figures.
NOMINAL_S = 0.015

_rng = np.random.default_rng(0)
_MATRICES = [G @ G.T + np.eye(8)
             for G in (_rng.standard_normal((8, 8)) for _ in range(16))]


def kernel(passes: int = KERNEL_PASSES) -> float:
    """The reference kernel; returns the seconds it took."""
    t0 = time.perf_counter()
    for _ in range(passes):
        for M in _MATRICES:
            _, V = np.linalg.eigh(M)
            np.linalg.solve(M, V[:, 0])
            (M @ V).sum()
    return time.perf_counter() - t0


def rescale(net_wall: float, kernel_times) -> float:
    """``net_wall`` seconds at the speeds that ``kernel_times`` sampled,
    as seconds at the nominal speed."""
    return net_wall * statistics.fmean(NOMINAL_S / k for k in kernel_times)


class SpeedProbe:
    """Samples the host's speed every ``INTERVAL_S`` while it is entered.

    The handler re-arms a one-shot timer after each sample, so samples never
    overlap.  Leaving the ``with`` block disarms the timer and restores the
    previous handler on every path out.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel time)
        kernel()  # warm up numpy's code paths before the first sample

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, kernel()))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def timed(self, fn, *args):
        """Call ``fn(*args)``; return its result, its wall time and its
        rescaled time."""
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        inside = [k for s, k in self.samples if t0 <= s <= t0 + wall]
        net = wall - sum(inside)
        # a call shorter than the interval takes the speed right after it
        return result, wall, rescale(net, inside or [kernel()])


def rescaled_between(fn, *args, **kwargs) -> float:
    """Wall time of ``fn(*args, **kwargs)``, rescaled by the speed measured
    just before and just after it: for calls that the probe cannot
    interrupt, such as waiting for a child process."""
    before = [kernel() for _ in range(BRACKET_SAMPLES)]
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    after = [kernel() for _ in range(BRACKET_SAMPLES)]
    return rescale(wall, before + after)
