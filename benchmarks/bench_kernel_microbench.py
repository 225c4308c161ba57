"""Kernel microbenchmark: dict-probe reference vs interned array kernels.

Times the same brute-force all-pair sweep over a Zipf-skewed corpus twice —
once on the measure's per-element dict path (``measure.similarity``: hash
probes plus one ``conj_from_pair``/``conj_merge`` tuple pair per shared
element) and once on the interned merge-scan kernels
(:mod:`repro.similarity.kernels`) — and asserts the array kernel wins by at
least 2x in full mode.  Both sweeps produce the identical pair list, which
is asserted, not assumed.

The second half measures the other tentpole lever on the batch path:
upper-bound candidate pruning in the Similarity1 reducer.  At thresholds of
0.7 and up, most candidate pairs of a skewed corpus provably cannot reach
the threshold from their ``Uni`` tuples alone, so the candidate-record
counter collapses while the join output stays identical (also asserted).
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import QUICK, run_once
from repro.analysis.reporting import format_table
from repro.core.multiset import Multiset
from repro.datasets.zipf import BoundedZipf, clipped_zipf_sizes
from repro.engine import join
from repro.similarity.exact import all_pairs_exact

#: Speedup the array kernel must reach over the dict kernel (full mode).
REQUIRED_SPEEDUP = 2.0
#: Pruning threshold of the acceptance check (the issue's "t >= 0.7").
PRUNE_THRESHOLD = 0.7

MEASURES = ("ruzicka", "jaccard", "vector_cosine")


def zipf_corpus(count: int, alphabet: int, max_size: int,
                seed: int = 2012) -> list[Multiset]:
    """A corpus with Zipf element popularity and Zipf cardinalities.

    Mirrors the paper's workload shape: a few huge multisets, a popular
    head of elements shared by many multisets, and long string elements
    (cookies) so the dict path pays realistic hashing costs.
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


def _time_sweep(multisets, measure: str, threshold: float, intern: bool):
    started = time.perf_counter()
    pairs = all_pairs_exact(multisets, measure, threshold, intern=intern)
    return time.perf_counter() - started, pairs


def test_kernel_microbench(benchmark, bench_record):
    corpus = zipf_corpus(count=120 if QUICK else 300,
                         alphabet=800 if QUICK else 2000,
                         max_size=60 if QUICK else 120)

    def run():
        kernel_rows = []
        for measure in MEASURES:
            dict_seconds, dict_pairs = _time_sweep(corpus, measure, 0.3,
                                                   intern=False)
            array_seconds, array_pairs = _time_sweep(corpus, measure, 0.3,
                                                     intern=True)
            assert array_pairs == dict_pairs, measure
            kernel_rows.append({
                "measure": measure,
                "dict_seconds": dict_seconds,
                "array_seconds": array_seconds,
                "speedup": dict_seconds / array_seconds if array_seconds else
                           float("inf"),
                "num_pairs": len(dict_pairs),
            })

        pruning_rows = []
        prune_corpus = corpus[:120]
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
        return kernel_rows, pruning_rows

    kernel_rows, pruning_rows = run_once(benchmark, run)
    bench_record["corpus_multisets"] = len(corpus)
    bench_record["kernel"] = kernel_rows
    bench_record["pruning"] = pruning_rows

    print()
    print(format_table(
        ["measure", "dict kernel", "array kernel", "speedup", "pairs"],
        [[row["measure"],
          f"{row['dict_seconds'] * 1000:,.0f}ms",
          f"{row['array_seconds'] * 1000:,.0f}ms",
          f"{row['speedup']:.1f}x",
          row["num_pairs"]] for row in kernel_rows],
        title=f"All-pair sweep over {len(corpus)} Zipf multisets (t = 0.3)"))
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
    if not QUICK:
        for row in kernel_rows:
            assert row["speedup"] >= REQUIRED_SPEEDUP, row
