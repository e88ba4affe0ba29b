"""Scaling timed intervals by the host-speed probe."""

import pytest

from perfbench import speed

REF = speed.REFERENCE_PROBE_S


def test_a_probe_at_reference_speed_leaves_the_interval_alone():
    assert speed.scale(0.5, REF) == pytest.approx(0.5)


def test_a_slow_host_is_scaled_back_to_reference_speed():
    # The host ran at half speed: the probe and the interval both doubled.
    assert speed.scale(1.0, 2 * REF) == pytest.approx(0.5)


def test_each_interval_takes_the_faster_probe_beside_it():
    intervals = [0.010, 0.004, 0.002]
    # The second probe met an interrupt; the fourth a slow stretch.
    probes = [REF, 10 * REF, REF, 2 * REF]
    assert speed.scale_between(intervals, probes) == pytest.approx(
        [0.010, 0.004, 0.002]
    )
    probes = [2 * REF, 2 * REF, 2 * REF, 2 * REF]
    assert speed.scale_between(intervals, probes) == pytest.approx(
        [0.005, 0.002, 0.001]
    )


def test_intervals_need_one_probe_more():
    with pytest.raises(ValueError):
        speed.scale_between([0.1, 0.2], [REF, REF])


def test_a_serve_run_is_scaled_by_its_median_probe():
    # One probe met an interrupt; the median leaves it out.
    got = speed.scale_by_median([0.002, 0.004], [2 * REF, 2 * REF, 50 * REF])
    assert got == pytest.approx([0.001, 0.002])
    assert speed.scale_by_median([], []) == []


def test_probes_time_real_work():
    assert speed.probe() > 0
    assert 0 < speed.steady_probe(3) <= 1.0
