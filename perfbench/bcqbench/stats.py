"""Order statistics and the run-pair comparison the benchmark reports with.

Percentiles use the nearest-rank definition, so every reported value is a
sample that was actually measured.  A percentile is only trusted when at
least :data:`MIN_TAIL` samples lie beyond it; :func:`highest_percentile`
names the highest one that qualifies for a sample count, and the run records
that next to each timing.  Quartiles follow ``statistics.quantiles(values,
n=4)``, the same definition used to judge the spread between runs.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

#: Samples that must lie beyond a percentile for it to be reported.
MIN_TAIL = 10

#: Percentiles considered when naming the highest trustworthy one.
CANDIDATE_PERCENTILES = (50, 90, 95, 99, 99.9)


def _rank(count: int, q: float) -> int:
    """The 1-based nearest rank of the ``q``-th percentile among ``count`` samples."""
    if count < 1:
        raise ValueError("a percentile needs at least one sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    # Exact arithmetic: 99.9 * 1000 / 100 must be 999, not 999.0000000000001.
    return max(1, math.ceil(Fraction(str(q)) * count / 100))


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile's rank."""
    return count - _rank(count, q)


def highest_percentile(
    count: int,
    min_tail: int = MIN_TAIL,
    candidates: Sequence[float] = CANDIDATE_PERCENTILES,
) -> float | None:
    """The highest candidate percentile with at least ``min_tail`` samples beyond it.

    ``None`` when even the median lacks that many (fewer than ``2 * min_tail``
    samples).
    """
    if count < 1:
        return None
    best = None
    for q in candidates:
        if samples_beyond(count, q) >= min_tail:
            best = q
    return best


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics.quantiles``, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    middle = median(values)
    if middle == 0:
        raise ValueError("spread is undefined for a zero median")
    return (q3 - q1) / abs(middle)


@dataclass(frozen=True)
class Comparison:
    """The verdict of comparing runs of a parent commit and of a change.

    ``verdict`` is one of ``"improved"`` (the change wins at least nine
    tenths of the pairs and its median moved by more than the parent's own
    interquartile distance), ``"regressed"`` (its median is worse by more
    than ``bound``), ``"unresolved"`` (the runs spread wider than ``bound``
    and do not separate), ``"not-worse"`` (wide spread, but every change run
    beats every parent run) or ``"unchanged"``.
    """

    verdict: str
    parent_median: float
    change_median: float
    #: Change median over parent median.
    ratio: float
    wins: int
    pairs: int
    parent_spread: float
    change_spread: float


def compare_runs(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> Comparison:
    """Compare paired runs of one metric; ``better`` is ``"lower"`` or ``"higher"``.

    Pairs are matched by position (the i-th parent run against the i-th
    change run); ties count for neither side.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two runs on each side, paired by position")
    lower = better == "lower"

    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    parent_median = median(parent)
    change_median = median(change)
    wins = sum(1 for p, c in zip(parent, change) if beats(c, p))
    q1, _, q3 = quartiles(parent)
    parent_spread = relative_spread(parent)
    change_spread = relative_spread(change)
    worse_by = (change_median - parent_median) / abs(parent_median)
    if not lower:
        worse_by = -worse_by

    if wins * 10 >= 9 * len(parent) and abs(change_median - parent_median) > q3 - q1:
        verdict = "improved"
    elif max(parent_spread, change_spread) > bound:
        separated = all(beats(c, p) for c in change for p in parent)
        verdict = "not-worse" if separated else "unresolved"
    elif worse_by > bound:
        verdict = "regressed"
    else:
        verdict = "unchanged"
    return Comparison(
        verdict=verdict,
        parent_median=parent_median,
        change_median=change_median,
        ratio=change_median / parent_median,
        wins=wins,
        pairs=len(parent),
        parent_spread=parent_spread,
        change_spread=change_spread,
    )
