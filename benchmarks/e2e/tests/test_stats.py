"""Nearest-rank percentiles, the samples-beyond rule and quartiles."""

import random
import statistics

import pytest

import stats


def test_nearest_rank_percentiles():
    values = list(range(1, 11))
    assert stats.percentile(values, 50) == 5
    assert stats.percentile(values, 90) == 9
    assert stats.percentile(values, 91) == 10
    assert stats.percentile(values, 100) == 10
    assert stats.percentile(values, 1) == 1
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile([7.5], 99) == 7.5


def test_percentile_is_always_a_sample():
    rng = random.Random(0)
    values = [rng.random() for _ in range(37)]
    for q in (1, 25, 50, 90, 99, 100):
        assert stats.percentile(values, q) in values


@pytest.mark.parametrize("values, q", [([], 50), ([1.0], 0), ([1.0], 101)])
def test_percentile_rejects_bad_input(values, q):
    with pytest.raises(ValueError):
        stats.percentile(values, q)


@pytest.mark.parametrize("count, q, beyond", [
    (100, 90, 10), (99, 90, 9), (120, 90, 12),
    (1000, 99, 10), (999, 99, 9), (20, 50, 10), (19, 50, 9)])
def test_samples_beyond_rule(count, q, beyond):
    assert stats.samples_beyond(count, q) == beyond
    assert stats.supported(count, q) is (beyond >= stats.MIN_BEYOND)
    # the samples beyond are exactly those above the reported value
    values = list(range(count))
    reported = stats.percentile(values, q)
    assert sum(value > reported for value in values) == beyond


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [9.0, 10.0, 10.5, 11.0, 12.0, 30.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, median, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / median)
    assert stats.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert stats.spread([4.0]) == 0.0
