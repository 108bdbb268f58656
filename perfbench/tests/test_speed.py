"""The speed probe: rescaling arithmetic, sampling and clean-up."""

import signal
import time

import pytest

import speed


def test_rescale_at_nominal_speed_is_the_wall_time():
    assert speed.rescale(2.0, [speed.NOMINAL_S] * 3) == pytest.approx(2.0)


def test_rescale_uses_the_mean_speed():
    # half the time at nominal speed, half at half speed: 3/4 of the work
    # that the same wall time does at nominal speed
    kernel_times = [speed.NOMINAL_S, 2 * speed.NOMINAL_S]
    assert speed.rescale(4.0, kernel_times) == pytest.approx(3.0)


def test_probe_samples_during_a_call_and_leaves_no_timer():
    before = signal.getsignal(signal.SIGALRM)

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    with speed.SpeedProbe() as probe:
        result, wall, scaled = probe.timed(busy, 4 * speed.INTERVAL_S)
    assert result == "done"
    assert wall >= 4 * speed.INTERVAL_S
    assert len(probe.samples) >= 2
    assert scaled > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_probe_disarms_when_the_call_raises():
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(ZeroDivisionError):
        with speed.SpeedProbe() as probe:
            probe.timed(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
