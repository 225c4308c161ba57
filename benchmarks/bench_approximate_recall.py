"""Approximate tier: measured recall vs the recall target.

``JoinSpec(..., recall=r)`` admits the approximate algorithms — MinHash/LSH
with banding auto-derived from ``(threshold, recall)``, and the sampled
join — as plannable candidates.  Their contract is one-sided: every
reported pair is exactly verified (precision 1.0), and the expected
fraction of true pairs retained is at least the recall target.

This benchmark runs the exact join on the small preset as ground truth,
then every approximate algorithm across a ``threshold x recall`` grid, and
records per cell:

* measured recall (``|approx ∩ truth| / |truth|``) — asserted ``>= target``;
* precision — asserted exactly 1.0 (approximate pairs are a *subset* of
  the exact result, never a superset);
* the ``JoinResult.exact`` flag — ``True`` only for the exact run.

It also records the planner's ``auto`` choice with and without a recall
target: without one the approximate tier must never be offered; with one
the approximate candidates are priced and (on this corpus, under the
default cost constants) win.

The recall/precision/choice series are deterministic (seeded hashing) and
go through ``bench_record`` into the committed smoke baselines.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.engine.engine import SimilarityEngine
from repro.engine.spec import APPROXIMATE_ALGORITHMS, JoinSpec

#: Thresholds low enough for a meaningful truth set on the small preset
#: (667 exact pairs at 0.1, 106 at 0.3 under Ruzicka) — a recall
#: measurement over a handful of pairs would be all variance.
THRESHOLDS = (0.1, 0.3)
RECALL_TARGETS = (0.8, 0.95)


def test_approximate_recall(small_dataset, bench_record):
    multisets = small_dataset.multisets

    results = {}
    with SimilarityEngine(multisets) as engine:
        for threshold in THRESHOLDS:
            exact = engine.run(JoinSpec(threshold=threshold,
                                        algorithm="exact"))
            assert exact.exact
            truth = {pair.pair for pair in exact}
            for algorithm in APPROXIMATE_ALGORITHMS:
                for target in RECALL_TARGETS:
                    result = engine.run(JoinSpec(threshold=threshold,
                                                 algorithm=algorithm,
                                                 recall=target))
                    key = f"{algorithm} t={threshold} recall={target}"
                    results[key] = (result, truth,
                                    {pair.pair for pair in result})
        plans = {
            "without_recall": engine.plan(JoinSpec(threshold=0.5)),
            "with_recall": engine.plan(JoinSpec(threshold=0.5,
                                                recall=0.9)),
        }

    recall_series = {}
    precision_series = {}
    pair_counts = {}
    rows = []
    for key, (result, truth, produced) in results.items():
        assert not result.exact, key
        assert produced <= truth, (key, sorted(produced - truth)[:5])
        target = result.spec.recall
        measured = len(produced) / len(truth) if truth else 1.0
        precision = 1.0 if produced <= truth else 0.0
        recall_series[key] = measured
        precision_series[key] = precision
        pair_counts[key] = len(produced)
        rows.append([key, len(truth), len(produced),
                     f"{measured:.3f}", f"{target:.2f}",
                     "yes" if measured >= target else "NO"])

    bench_record["recall"] = recall_series
    bench_record["precision"] = precision_series
    bench_record["pairs"] = pair_counts

    # The planner's auto path: the approximate tier exists only behind an
    # explicit recall target.
    offered = {name: sorted(candidate.algorithm
                            for candidate in plan.candidates)
               for name, plan in plans.items()}
    choices = {name: plan.algorithm for name, plan in plans.items()}
    bench_record["auto_offered"] = offered
    bench_record["auto_choice"] = choices

    print()
    print(format_table(
        ["configuration", "truth pairs", "found", "recall", "target", "meets"],
        rows,
        title="Approximate tier recall vs target (small dataset)"))
    print(f"\nauto without recall -> {choices['without_recall']} "
          f"(offered: {', '.join(offered['without_recall'])})")
    print(f"auto with recall=0.9 -> {choices['with_recall']} "
          f"(offered: {', '.join(offered['with_recall'])})")

    # The acceptance criterion: every cell's measured recall meets its
    # target (deterministic — the hash seeds are fixed).
    for key, (result, truth, produced) in results.items():
        measured = recall_series[key]
        assert measured >= result.spec.recall, (key, measured)

    # Exactness is opt-out, never silent: no approximate candidate without
    # a recall target, approximate candidates priced once one is given.
    assert not set(offered["without_recall"]) & set(APPROXIMATE_ALGORITHMS)
    assert set(APPROXIMATE_ALGORITHMS) <= set(offered["with_recall"])
    assert choices["with_recall"] in APPROXIMATE_ALGORITHMS
