"""The benchmark's own statistics on small fixed inputs."""

import pytest

from bcqbench import stats


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.5], 99) == 7.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50), (99, 50), (100, 90), (200, 95), (999, 95), (1000, 99),
     (9999, 99), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.highest_percentile(count) == expected
    if expected is not None:
        assert stats.samples_beyond(count, expected) >= stats.MIN_TAIL


def test_samples_beyond_uses_exact_ranks():
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(1000, 99.9) == 1
    assert stats.samples_beyond(10000, 99.9) == 10


def test_median_quartiles_and_spread():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9]
    assert stats.median(values) == 5
    assert stats.quartiles(values) == (2.5, 5, 7.5)
    assert stats.relative_spread(values) == pytest.approx(1.0)
    assert stats.relative_spread([10, 10, 10, 10]) == 0.0


PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


def test_compare_runs_improved_when_nine_tenths_win():
    change = [value * 0.8 for value in PARENT]
    change[3] = 10.5  # one lost pair of ten still counts as improved
    verdict = stats.compare_runs(PARENT, change, "lower", bound=0.1)
    assert verdict.verdict == "improved"
    assert (verdict.wins, verdict.pairs) == (9, 10)
    assert verdict.ratio == pytest.approx(stats.median(change) / stats.median(PARENT))


def test_compare_runs_regressed_beyond_bound():
    change = [value * 1.2 for value in PARENT]
    assert stats.compare_runs(PARENT, change, "lower", bound=0.1).verdict == "regressed"
    # For a higher-is-better metric the same numbers are an improvement.
    assert stats.compare_runs(PARENT, change, "higher", bound=0.1).verdict == "improved"


def test_compare_runs_unchanged_within_bound():
    change = [value * 1.01 for value in PARENT]
    assert stats.compare_runs(PARENT, change, "lower", bound=0.1).verdict == "unchanged"


def test_compare_runs_unresolved_when_spread_exceeds_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert stats.compare_runs(PARENT, noisy, "lower", bound=0.1).verdict == "unresolved"
    separated = [value * 0.5 for value in noisy]  # wide, but every run beats the parent
    separated = [min(value, 7.0) for value in separated]
    assert stats.compare_runs(PARENT, separated, "lower", bound=0.1).verdict in (
        "improved", "not-worse")


def test_compare_runs_ties_count_for_neither_side():
    verdict = stats.compare_runs(PARENT, list(PARENT), "lower", bound=0.1)
    assert verdict.wins == 0
    assert verdict.verdict == "unchanged"


def test_compare_runs_rejects_unpaired_input():
    with pytest.raises(ValueError):
        stats.compare_runs(PARENT, PARENT[:5], "lower", bound=0.1)
    with pytest.raises(ValueError):
        stats.compare_runs(PARENT, PARENT, "faster", bound=0.1)
