"""The tail rule: a percentile needs at least ten samples beyond it."""

import pytest

import stats


def test_p99_needs_a_thousand_samples():
    assert stats.samples_beyond(1000, 0.99) == 10
    assert stats.tail_is_supported(1000, 0.99)
    assert not stats.tail_is_supported(999, 0.99)
    assert stats.tail_is_supported(10_000, 0.999)
    assert not stats.tail_is_supported(9_999, 0.999)
    assert stats.tail_is_supported(20, 0.5)
    assert not stats.tail_is_supported(19, 0.5)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.99) == 99
    assert stats.percentile(values, 1.0) == 100
    assert stats.percentile([7.5], 0.99) == 7.5
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_the_median_over_slices_ignores_a_burst():
    slices = [[1, 1], [1, 1], [50, 50], [1, 1], [1, 1], []]
    assert stats.median_over(slices, max) == 1
