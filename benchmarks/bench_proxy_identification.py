"""Section 7.4: identifying proxies — coverage, false positives, filtering.

The paper judges each threshold by the coverage of the discovered similar
IPs and their false positives, and reports that filtering out IPs with fewer
than 50 cookies almost eliminated the false positives (and, as a side
effect, let the Lookup algorithm's table fit in memory again).  With planted
ground truth the same analysis is quantitative here.
"""

from __future__ import annotations

from benchmarks.conftest import DEFAULT_SHARDING_C
from repro.analysis.calibration import paper_scale_cluster
from repro.analysis.experiments import run_algorithm
from repro.analysis.reporting import format_table
from repro.communities.proxies import evaluate_proxy_discovery, filter_small_multisets

THRESHOLDS = (0.1, 0.3, 0.5)
#: Scaled-down analogue of the paper's 50-cookie filter.
MINIMUM_COOKIES = 25


def test_proxy_identification(realistic_dataset, cost_parameters,
                              bench_record):
    dataset = realistic_dataset
    cluster = paper_scale_cluster(500)

    report = {}
    filtered = filter_small_multisets(dataset.multisets, MINIMUM_COOKIES)
    filtered_ids = {m.id for m in filtered}
    for threshold in THRESHOLDS:
        raw = run_algorithm("online_aggregation", dataset.multisets,
                            threshold=threshold, cluster=cluster,
                            sharding_threshold=DEFAULT_SHARDING_C,
                            cost_parameters=cost_parameters)
        cleaned = run_algorithm("online_aggregation", filtered,
                                threshold=threshold, cluster=cluster,
                                sharding_threshold=DEFAULT_SHARDING_C,
                                cost_parameters=cost_parameters)
        report[threshold] = {
            "raw": evaluate_proxy_discovery(raw.pairs, dataset.proxy_groups,
                                            threshold),
            "filtered": evaluate_proxy_discovery(cleaned.pairs, dataset.proxy_groups,
                                                 threshold,
                                                 restrict_to_ids=filtered_ids),
        }
    lookup_after_filter = run_algorithm("lookup", filtered, threshold=0.5,
                                        cluster=cluster,
                                        sharding_threshold=DEFAULT_SHARDING_C,
                                        cost_parameters=cost_parameters,
                                        keep_pairs=False)
    bench_record["quality"] = {
        threshold: {variant: {"discovered_pairs": evaluation.discovered_pairs,
                              "coverage": evaluation.coverage,
                              "false_positive_rate": evaluation.false_positive_rate}
                    for variant, evaluation in evaluations.items()}
        for threshold, evaluations in report.items()}
    bench_record["lookup_after_filter"] = lookup_after_filter.status
    rows = []
    for threshold, evaluations in sorted(report.items()):
        raw = evaluations["raw"]
        cleaned = evaluations["filtered"]
        rows.append([threshold,
                     raw.discovered_pairs, f"{raw.coverage:.2f}",
                     f"{raw.false_positive_rate:.2f}",
                     cleaned.discovered_pairs, f"{cleaned.coverage:.2f}",
                     f"{cleaned.false_positive_rate:.2f}"])
    print()
    print(format_table(
        ["t", "pairs", "coverage", "FP rate",
         "pairs (filtered)", "coverage (filtered)", "FP rate (filtered)"],
        rows, title="Section 7.4: proxy identification quality "
                    f"(small-IP filter at {MINIMUM_COOKIES} cookies)"))
    print()
    print("Lookup on the filtered dataset:",
          "finished" if lookup_after_filter.finished else lookup_after_filter.status,
          "(the paper notes the filter let Lookup's table fit in memory)")

    lowest = report[min(THRESHOLDS)]
    # The lowest threshold has the highest coverage and the most false positives.
    assert lowest["raw"].coverage >= report[max(THRESHOLDS)]["raw"].coverage
    for threshold in THRESHOLDS:
        raw = report[threshold]["raw"]
        cleaned = report[threshold]["filtered"]
        # Filtering small IPs never increases the false-positive rate.
        assert cleaned.false_positive_rate <= raw.false_positive_rate + 1e-9
    # The filter brings the low-threshold false positives close to zero.
    assert report[min(THRESHOLDS)]["filtered"].false_positive_rate < 0.2
    # And it lets Lookup run again (its table now fits).
    assert lookup_after_filter.finished
