"""Percentile estimates and the "ten samples beyond" rule."""

import pytest

from harness import percentiles
from harness.common import MIN_SAMPLES, timing


def test_nearest_rank_picks_a_sample_value():
    values = [5, 1, 4, 2, 3]
    assert percentiles.nearest_rank(values, 0.5) == 3
    assert percentiles.nearest_rank([1, 2, 3, 4], 0.5) == 2
    assert percentiles.nearest_rank(list(range(1, 101)), 0.9) == 90
    assert percentiles.nearest_rank(list(range(1, 101)), 1.0) == 100
    assert percentiles.nearest_rank([7], 0.9) == 7


def test_nearest_rank_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentiles.nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        percentiles.nearest_rank([1.0], 0.0)


def test_ten_beyond_rule():
    assert percentiles.samples_beyond(100, 0.9) == 10
    assert percentiles.samples_beyond(99, 0.9) == 9
    assert percentiles.supported(100, 0.9)
    assert not percentiles.supported(99, 0.9)
    assert percentiles.min_samples_for(0.9) == 100
    assert percentiles.min_samples_for(0.5) == 20
    assert percentiles.min_samples_for(0.99) == 1000
    assert MIN_SAMPLES == 100


def test_summary_flags_an_unsupported_p90():
    p50, p90 = timing([float(v) for v in range(1, 51)])
    assert p50.value == pytest.approx(25.5)
    assert p90.value == pytest.approx(45.5, abs=1e-3)
    assert p90.samples == 50 and p90.note
    _p50, p90 = timing([float(v) for v in range(1, 101)])
    assert p90.value == pytest.approx(90.5, abs=1e-3) and not p90.note


def test_harrell_davis_on_plain_samples():
    assert percentiles.quantile([7.0], 0.9) == pytest.approx(7.0)
    assert percentiles.quantile([3.0] * 40, 0.9) == pytest.approx(3.0)
    # a symmetric sample's median is its centre
    assert percentiles.quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
    evenly = [i / 1000 for i in range(1001)]
    assert percentiles.quantile(evenly, 0.5) == pytest.approx(0.5, abs=1e-3)
    assert percentiles.quantile(evenly, 0.9) == pytest.approx(0.9, abs=2e-3)
    with pytest.raises(ValueError):
        percentiles.quantile([], 0.5)
    with pytest.raises(ValueError):
        percentiles.quantile([1.0], 1.0)


def test_harrell_davis_does_not_jump_between_clusters():
    """Latencies of a repeated query set come in clusters. When one
    sample moves from the fast cluster to the slow one, the nearest-rank
    median jumps the whole gap; the reported estimate moves a little."""
    even = [10.0] * 50 + [20.0] * 50
    shifted = [10.0] * 49 + [20.0] * 51
    assert percentiles.nearest_rank(shifted, 0.5) - percentiles.nearest_rank(even, 0.5) == 10.0
    move = percentiles.quantile(shifted, 0.5) - percentiles.quantile(even, 0.5)
    assert 0.0 < move < 1.0
