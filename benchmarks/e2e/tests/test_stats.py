import pytest

import stats


def test_percentile_is_nearest_rank_and_one_of_the_samples():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 99) == 99
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert not stats.supports_percentile(999, 99)
    assert stats.supports_percentile(1000, 99)
    assert stats.supports_percentile(20, 50)
    assert not stats.supports_percentile(19, 50)
    assert stats.supports_percentile(10000, 99.9)


def test_summary_matches_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    result = stats.summary(values)
    assert result["median"] == 3.0
    assert (result["q1"], result["q3"]) == (1.5, 4.5)
    assert result["samples"] == values
    assert stats.iqr_share(values) == 1.0
    assert stats.summary([7.0])["q1"] == 7.0


def test_ladder_failing_lower_step_caps_the_result():
    passing = [(20000, 1.5, 0), (40000, 1.6, 0), (60000, 2.8, 0),
               (80000, 120.0, 0)]
    assert stats.max_rate_in_slo(passing, 5.0) == 60000
    lucky_top = [(20000, 1.5, 0), (40000, 9.0, 0), (60000, 2.0, 0)]
    assert stats.max_rate_in_slo(lucky_top, 5.0) == 20000
    unanswered = [(20000, 1.5, 0), (40000, 1.6, 3), (60000, 2.0, 0)]
    assert stats.max_rate_in_slo(unanswered, 5.0) == 20000
    assert stats.max_rate_in_slo([(20000, 6.0, 0)], 5.0) == 0
    assert stats.max_rate_in_slo([(20000, None, 0)], 5.0) == 0
