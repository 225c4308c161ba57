"""Ablation: stop-word filtering and the chunked Similarity1 reducer.

Section 4 offers two remedies for the quadratic load of the Similarity1
reducer that handles the most frequent element: discard stop words (elements
shared by more than q multisets) in a preprocessing step, or dissect the
overloaded reduce value list into chunks whose pairs are expanded by the
Similarity2 mappers.  This ablation compares plain, stop-word-filtered and
chunked runs: chunking preserves the exact result while reducing the
single-reducer bottleneck; stop-word filtering trades recall for load.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.engine import JoinSpec, SimilarityEngine

THRESHOLD = 0.3


def _max_similarity1_group(result):
    for stats in result.pipeline.job_stats:
        if stats.job_name == "similarity1":
            return stats.max_group_records
    return 0


def test_ablation_stop_words_and_chunking(small_dataset, cluster_500,
                                          cost_parameters, bench_record):
    multisets = small_dataset.multisets

    variants = {
        "plain": {},
        "stop words (q=12)": {"stop_word_frequency": 12},
        "chunked (T-chunks of 8)": {"chunk_size": 8},
    }
    with SimilarityEngine(multisets, cluster=cluster_500,
                          cost_parameters=cost_parameters) as engine:
        outcomes = {name: engine.run(JoinSpec(algorithm="online_aggregation",
                                              threshold=THRESHOLD, **knobs))
                    for name, knobs in variants.items()}
    bench_record["variants"] = {
        name: {"num_pairs": len(result.pairs),
               "max_similarity1_group": _max_similarity1_group(result),
               "simulated_seconds": result.simulated_seconds}
        for name, result in outcomes.items()}
    rows = []
    for name, result in outcomes.items():
        rows.append([name, len(result.pairs), _max_similarity1_group(result),
                     f"{result.simulated_seconds:,.0f}s"])
    print()
    print(format_table(["variant", "pairs", "largest Similarity1 group (records)",
                        "simulated run time"], rows,
                       title="Ablation: stop words vs chunked Similarity1 reducer "
                             f"(small dataset, t = {THRESHOLD})"))

    plain = outcomes["plain"]
    chunked = outcomes["chunked (T-chunks of 8)"]
    filtered = outcomes["stop words (q=12)"]
    # Chunking is exact: same pairs as the plain run.
    assert {p.pair for p in chunked.pairs} == {p.pair for p in plain.pairs}
    # Stop-word filtering bounds the posting-list length by q, taming the
    # slowest Similarity1 reducer.  (It changes the similarity semantics —
    # dropped elements no longer count towards |Mi| — so the pair set is not
    # comparable to the plain run and is only reported.)
    assert _max_similarity1_group(filtered) <= 12
    assert _max_similarity1_group(filtered) <= _max_similarity1_group(plain)
