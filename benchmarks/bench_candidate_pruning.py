"""Upper-bound candidate pruning in the Similarity1 reducer.

At thresholds of 0.7 and up, most candidate pairs of a skewed corpus
provably cannot reach the threshold from their ``Uni`` tuples alone, so the
``similarity1/candidate_records`` counter collapses while the join output
stays identical (asserted, not assumed).  This is the *exact* counterpart
to stop-word pruning: stop words buy speed by dropping pairs that only
share hot elements (recall can drop), the upper bound by skipping pairs
that provably cannot qualify.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import QUICK
from repro.analysis.reporting import format_table
from repro.core.multiset import Multiset
from repro.datasets.zipf import BoundedZipf, clipped_zipf_sizes
from repro.engine import join

#: Pruning threshold of the acceptance check ("t >= 0.7").
PRUNE_THRESHOLD = 0.7


def zipf_corpus(count: int, alphabet: int, max_size: int,
                seed: int = 2012) -> list[Multiset]:
    """A corpus with Zipf element popularity and Zipf cardinalities.

    Mirrors the paper's workload shape: a few huge multisets and a popular
    head of elements shared by many multisets.
    """
    rng = np.random.default_rng(seed)
    elements = BoundedZipf(alphabet, 1.1)
    sizes = clipped_zipf_sizes(rng, count, max_size, 1.2, minimum=4)
    corpus = []
    for index, size in enumerate(sizes):
        counts: dict[str, int] = {}
        for rank in elements.sample(rng, int(size)):
            name = f"cookie-{rank:08d}"
            counts[name] = counts.get(name, 0) + 1
        corpus.append(Multiset(f"ip-10.0.{index // 250}.{index % 250}", counts))
    return corpus


def test_candidate_pruning(bench_record):
    corpus = zipf_corpus(count=120 if QUICK else 300,
                         alphabet=800 if QUICK else 2000,
                         max_size=60 if QUICK else 120)
    prune_corpus = corpus[:120]

    pruning_rows = []
    for threshold in (0.5, PRUNE_THRESHOLD, 0.9):
        counters = {}
        pairs = {}
        for prune in (False, True):
            result = join(prune_corpus, algorithm="online_aggregation",
                          threshold=threshold, prune_candidates=prune)
            counters[prune] = result.counters()
            pairs[prune] = result.pairs
        assert pairs[True] == pairs[False], threshold
        pruning_rows.append({
            "threshold": threshold,
            "candidates_unpruned": counters[False][
                "similarity1/candidate_records"],
            "candidates_pruned": counters[True][
                "similarity1/candidate_records"],
            "pruned_away": counters[True].get(
                "similarity1/candidates_pruned", 0),
            "num_pairs": len(pairs[True]),
        })

    bench_record["corpus_multisets"] = len(corpus)
    bench_record["pruning"] = pruning_rows

    print()
    print(format_table(
        ["threshold", "candidates (unpruned)", "candidates (pruned)",
         "pruned away", "pairs"],
        [[row["threshold"], row["candidates_unpruned"],
          row["candidates_pruned"], row["pruned_away"], row["num_pairs"]]
         for row in pruning_rows],
        title="Similarity1 candidate records with/without upper-bound pruning"))

    # Pruning is exact, so the candidate stream must only ever shrink — and
    # at t >= 0.7 on a skewed corpus it must shrink measurably.
    for row in pruning_rows:
        assert row["candidates_pruned"] <= row["candidates_unpruned"]
        if row["threshold"] >= PRUNE_THRESHOLD:
            assert row["candidates_pruned"] < row["candidates_unpruned"]
            assert row["pruned_away"] > 0
