"""Self-tests of the host speed reference.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import signal
from time import perf_counter

import pytest

import speed


def test_nominal_time_takes_out_the_kernel_and_scales_by_mean_speed():
    # two samples at half and at full nominal speed: mean speed 0.75
    k = speed.NOMINAL_KERNEL_S
    window = speed.Totals(t=1.0, n=2, kernel_s=3 * k, speed_sum=0.5 + 1.0)
    assert window.nominal_s() == pytest.approx((1.0 - 3 * k) * 0.75)
    assert window.nominal_s(wall=2.0) == pytest.approx((2.0 - 3 * k) * 0.75)


def test_totals_subtract_to_a_window_and_survive_json():
    a = speed.Totals(1.0, 3, 0.003, 2.5)
    b = speed.Totals(4.0, 10, 0.010, 9.0)
    w = b - a
    assert (w.t, w.n) == (3.0, 7)
    assert w.kernel_s == pytest.approx(0.007) and w.speed_sum == pytest.approx(6.5)
    back = speed.Totals.from_dict(w.to_dict())
    assert (back.n, back.kernel_s, back.speed_sum) == (w.n, w.kernel_s, w.speed_sum)


def test_a_window_without_samples_is_refused():
    with pytest.raises(ValueError):
        speed.Totals(0.001, 0, 0.0, 0.0).nominal_s()


def test_sampler_samples_while_started_and_then_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        end = perf_counter() + 10 * speed.PERIOD_S
        while perf_counter() < end:
            sum(range(1000))
        n = sampler.n
    assert n >= 5
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.n == n
