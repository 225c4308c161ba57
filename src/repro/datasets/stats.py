"""Distribution statistics for generated datasets (paper Fig. 2 and Fig. 3).

Figure 2 of the paper plots the distribution of the number of elements per
multiset (how many distinct cookies each IP observed); Figure 3 plots the
distribution of the number of multisets per element (how many IPs share each
cookie).  Both are heavy-tailed.  These helpers compute the same histograms
— optionally log-binned, which is how such distributions are usually
plotted — plus simple tail summaries used by the benchmarks to verify the
generated skew.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.multiset import Multiset


@dataclass(frozen=True)
class DistributionSummary:
    """Summary statistics of a discrete positive-valued distribution."""

    count: int
    minimum: int
    maximum: int
    mean: float
    median: float
    percentile_90: float
    percentile_99: float
    #: Fraction of the total mass contributed by the top 1% largest values —
    #: a simple skew indicator (0.01 would be a uniform distribution).
    top_1_percent_share: float


def elements_per_multiset(multisets: Iterable[Multiset]) -> list[int]:
    """The per-multiset distinct-element counts (Fig. 2 raw values)."""
    return [multiset.underlying_cardinality for multiset in multisets]


def multisets_per_element(multisets: Iterable[Multiset]) -> list[int]:
    """The per-element frequencies ``Freq(a_k)`` (Fig. 3 raw values)."""
    frequencies: Counter = Counter()
    for multiset in multisets:
        for element in multiset.underlying_set:
            frequencies[element] += 1
    return sorted(frequencies.values(), reverse=True)


def log_binned_histogram(values: Sequence[int], base: float = 2.0) -> list[tuple[int, int, int]]:
    """Histogram with exponentially growing bins ``[base^i, base^(i+1))``.

    Returns ``(bin_lower, bin_upper_exclusive, count)`` triples; this is the
    representation the Fig. 2 / Fig. 3 benchmarks print, mirroring how such
    skewed distributions are plotted on log-log axes.
    """
    if base <= 1.0:
        raise ValueError("log-bin base must be greater than 1")
    counts: Counter = Counter()
    for value in values:
        if value < 1:
            continue
        bin_index = int(math.floor(math.log(value, base)))
        counts[bin_index] += 1
    histogram = []
    for bin_index in sorted(counts):
        lower = int(base ** bin_index)
        upper = int(base ** (bin_index + 1))
        histogram.append((lower, upper, counts[bin_index]))
    return histogram


def summarise_distribution(values: Sequence[int]) -> DistributionSummary:
    """Summarise a distribution of positive integers."""
    if not values:
        return DistributionSummary(0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
    ordered = sorted(values)
    count = len(ordered)
    total = sum(ordered)
    top_count = max(1, count // 100)
    top_share = sum(ordered[-top_count:]) / total if total else 0.0
    return DistributionSummary(
        count=count,
        minimum=ordered[0],
        maximum=ordered[-1],
        mean=total / count,
        median=_percentile(ordered, 50.0),
        percentile_90=_percentile(ordered, 90.0),
        percentile_99=_percentile(ordered, 99.0),
        top_1_percent_share=top_share,
    )


def skew_ratio(values: Sequence[int]) -> float:
    """Max-to-mean ratio — the load-imbalance indicator the paper reasons with."""
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return max(values) / mean if mean else 0.0


def _percentile(ordered: Sequence[int], percentile: float) -> float:
    """Linear-interpolation percentile of an already sorted sequence."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (percentile / 100.0) * (len(ordered) - 1)
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    if lower == upper:
        return float(ordered[lower])
    fraction = rank - lower
    return float(ordered[lower] * (1 - fraction) + ordered[upper] * fraction)
