"""Figure 2: the distribution of elements (cookies) per multiset (IP).

The paper plots the heavy-tailed distribution of the number of distinct
cookies observed per IP for its datasets.  This benchmark prints the
log-binned histogram and tail summary of the same distribution for both
synthetic presets and checks that the skew the algorithms rely on is there.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.datasets.stats import (
    elements_per_multiset,
    log_binned_histogram,
    skew_ratio,
    summarise_distribution,
)


def _report(name, dataset):
    values = elements_per_multiset(dataset.multisets)
    histogram = log_binned_histogram(values)
    summary = summarise_distribution(values)
    rows = [[f"[{low}, {high})", count] for low, high, count in histogram]
    print()
    print(format_table(["elements per multiset", "number of multisets"], rows,
                       title=f"Fig. 2 ({name} dataset): distribution of elements per multiset"))
    print(f"  multisets={summary.count}  min={summary.minimum}  median={summary.median:.0f}  "
          f"p90={summary.percentile_90:.0f}  p99={summary.percentile_99:.0f}  "
          f"max={summary.maximum}  skew(max/mean)={skew_ratio(values):.1f}")
    return values


def _record(bench_record, values):
    bench_record["histogram"] = log_binned_histogram(values)
    bench_record["skew"] = skew_ratio(values)
    bench_record["count"] = len(values)


def test_fig2_small_dataset(small_dataset, bench_record):
    values = _report("small", small_dataset)
    _record(bench_record, values)
    assert skew_ratio(values) > 3.0


def test_fig2_realistic_dataset(realistic_dataset, bench_record):
    values = _report("realistic", realistic_dataset)
    _record(bench_record, values)
    assert skew_ratio(values) > 3.0
    assert max(values) > max(elements_per_multiset(realistic_dataset.multisets)) * 0.99
