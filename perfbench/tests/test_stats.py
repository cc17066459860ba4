import math

import pytest

from perfbench import stats


def test_percentile_is_nearest_rank_with_its_tail():
    samples = list(range(1, 101))  # 1..100
    p50 = stats.percentile(samples, 50)
    assert (p50.value, p50.samples, p50.beyond) == (50, 100, 50)
    p99 = stats.percentile(samples, 99)
    assert (p99.value, p99.beyond) == (99, 1)
    assert not p99.supported


def test_p99_is_supported_only_with_ten_samples_beyond():
    assert stats.percentile(list(range(1000)), 99).beyond == 10
    assert stats.percentile(list(range(1000)), 99).supported
    assert not stats.percentile(list(range(999)), 99).supported


def test_failed_samples_count_as_missing_the_limit():
    ok = [1.0] * 95
    p99 = stats.percentile(ok + [math.inf] * 5, 99)
    assert p99.value == math.inf
    assert stats.percentile(ok + [math.inf] * 5, 50).value == 1.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 100)

