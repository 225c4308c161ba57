"""Figure 3: the distribution of multisets (IPs) per element (cookie).

The mirror image of Fig. 2: how many IPs share each cookie.  The tail of
this distribution is what drives the Similarity1 reducer load (quadratic in
the element frequency) and the stop-word discussion of section 4.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.datasets.stats import (
    log_binned_histogram,
    multisets_per_element,
    skew_ratio,
    summarise_distribution,
)


def _report(name, dataset):
    values = multisets_per_element(dataset.multisets)
    histogram = log_binned_histogram(values)
    summary = summarise_distribution(values)
    rows = [[f"[{low}, {high})", count] for low, high, count in histogram]
    print()
    print(format_table(["multisets per element", "number of elements"], rows,
                       title=f"Fig. 3 ({name} dataset): distribution of multisets per element"))
    print(f"  elements={summary.count}  median={summary.median:.0f}  "
          f"p99={summary.percentile_99:.0f}  max={summary.maximum}  "
          f"skew(max/mean)={skew_ratio(values):.1f}")
    return values


def _record(bench_record, values):
    bench_record["histogram"] = log_binned_histogram(values)
    bench_record["skew"] = skew_ratio(values)
    bench_record["count"] = len(values)


def test_fig3_small_dataset(small_dataset, bench_record):
    values = _report("small", small_dataset)
    _record(bench_record, values)
    assert skew_ratio(values) > 3.0


def test_fig3_realistic_dataset(realistic_dataset, small_dataset,
                                bench_record):
    values = _report("realistic", realistic_dataset)
    _record(bench_record, values)
    assert skew_ratio(values) > 3.0
    # The realistic preset has the larger alphabet, as in the paper.
    assert len(values) > len(multisets_per_element(small_dataset.multisets))
