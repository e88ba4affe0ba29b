"""Percentile choice against sample count, and the nearest-rank rule."""

import pytest

from perfbench import stats


@pytest.mark.parametrize(
    "n, pct",
    [(0, 0), (1, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (5000, 99)],
)
def test_supported_tail_needs_ten_samples_beyond(n, pct):
    assert stats.supported_tail(n) == pct


def test_min_samples_for_common_tails():
    assert stats.min_samples_for(0.99) == 1000
    assert stats.min_samples_for(0.90) == 100


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert stats.percentile(samples, 0.5) == 50
    assert stats.percentile(samples, 0.9) == 90
    assert stats.percentile(samples, 0.99) == 99
    assert stats.percentile(samples, 1.0) == 100
    assert stats.percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_percentile_of_no_samples_is_zero():
    assert stats.percentile([], 0.5) == 0.0


def test_percentile_rejects_quantile_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0.0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 1.5)


def test_spread_is_quartile_distance_over_median():
    got = stats.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert got["median"] == 3.0
    assert got["iqr_frac"] == pytest.approx((got["q3"] - got["q1"]) / 3.0)
