"""Section 7.1 correctness claim: every algorithm finds the same pairs.

"Understandably, all the algorithms produced the same number of similar
pairs of IPs for each value of t."  This benchmark runs the three
V-SMART-Join algorithms, the VCL baseline and the sequential baselines on
the small dataset and checks the stronger property that the *sets* of pairs
are identical (and match the exact in-memory join).
"""

from __future__ import annotations

from repro.analysis.experiments import run_algorithm
from repro.analysis.reporting import format_table
from repro.baselines.inverted_index import InvertedIndexJoin
from repro.baselines.ppjoin import PPJoin
from repro.similarity.exact import all_pairs_exact

THRESHOLDS = (0.1, 0.5, 0.9)
DISTRIBUTED = ("online_aggregation", "lookup", "sharding", "vcl")


def test_pair_agreement(small_dataset, cluster_500, cost_parameters,
                        bench_record):
    multisets = small_dataset.multisets

    report = {}
    for threshold in THRESHOLDS:
        exact = {p.pair for p in all_pairs_exact(multisets, "ruzicka", threshold)}
        per_algorithm = {"exact": exact}
        for algorithm in DISTRIBUTED:
            outcome = run_algorithm(algorithm, multisets, threshold=threshold,
                                    cluster=cluster_500, sharding_threshold=1000,
                                    cost_parameters=cost_parameters)
            per_algorithm[algorithm] = {p.pair for p in outcome.pairs}
        per_algorithm["inverted_index"] = {
            p.pair for p in InvertedIndexJoin("ruzicka", threshold).run(multisets)}
        per_algorithm["ppjoin"] = {
            p.pair for p in PPJoin("ruzicka", threshold).run(multisets)}
        report[threshold] = per_algorithm
    bench_record["pairs_per_algorithm"] = {
        threshold: {name: len(pairs) for name, pairs in per_algorithm.items()}
        for threshold, per_algorithm in report.items()}
    rows = []
    for threshold, per_algorithm in sorted(report.items()):
        rows.append([threshold] + [len(per_algorithm[name])
                                   for name in ("exact",) + DISTRIBUTED
                                   + ("inverted_index", "ppjoin")])
    print()
    print(format_table(["threshold", "exact"] + list(DISTRIBUTED)
                       + ["inverted_index", "ppjoin"], rows,
                       title="Number of similar pairs per algorithm (must all agree)"))
    for threshold, per_algorithm in report.items():
        exact = per_algorithm["exact"]
        for name, pairs in per_algorithm.items():
            assert pairs == exact, (threshold, name)
