"""Ablation: VCL super-element grouping.

Section 6.2 reports that grouping elements into super-elements (to shrink
the alphabet VCL mappers must hold in memory) "was shown to consistently
introduce more overhead than savings due to the superfluous pairs", leading
the VCL authors to recommend one element per group.  This ablation compares
VCL without grouping against three grouping granularities, under a multiset
measure (Ruzicka) and a set measure (Jaccard), and reports the number of
candidate pairs the kernel reducers had to verify.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.core.exceptions import MemoryBudgetExceeded
from repro.engine import JoinSpec, SimilarityEngine

THRESHOLD = 0.5

#: Variant name -> super-element count (``None``: one element per group).
VARIANTS = {"no grouping": None, "4096 super-elements": 4096,
            "256 super-elements": 256, "64 super-elements": 64}
#: Measure -> the key its variants are recorded under.  Jaccard is a set
#: measure: a super-element must weigh its member count there, not 1, or
#: grouping loses true pairs.
MEASURES = {"ruzicka": "variants", "jaccard": "jaccard_variants"}


def run_variants(engine: SimilarityEngine, measure: str) -> dict:
    """Each variant's join result, or the budget failure that stopped it."""
    outcomes = {}
    for name, groups in VARIANTS.items():
        try:
            outcomes[name] = engine.run(JoinSpec(
                algorithm="vcl", measure=measure, threshold=THRESHOLD,
                vcl_super_element_groups=groups))
        except MemoryBudgetExceeded as error:
            outcomes[name] = error
    return outcomes


def test_ablation_vcl_grouping(small_dataset, cluster_500, cost_parameters,
                               bench_record):
    with SimilarityEngine(small_dataset.multisets, cluster=cluster_500,
                          cost_parameters=cost_parameters) as engine:
        by_measure = {measure: run_variants(engine, measure)
                      for measure in MEASURES}
    for measure, outcomes in by_measure.items():
        bench_record[MEASURES[measure]] = {
            name: ({"status": "out_of_memory"}
                   if isinstance(result, MemoryBudgetExceeded)
                   else {"pairs_verified": result.counters().get("vcl/pairs_verified", 0),
                         "simulated_seconds": result.simulated_seconds,
                         "num_pairs": len(result.pairs)})
            for name, result in outcomes.items()}
        rows = []
        for name, result in outcomes.items():
            if isinstance(result, MemoryBudgetExceeded):
                rows.append([name, "-", "-", "DNF (reducer group exceeds memory)", "-"])
                continue
            counters = result.counters()
            rows.append([name, counters.get("vcl/pairs_verified", 0),
                         counters.get("vcl/duplicate_results", 0),
                         f"{result.simulated_seconds:,.0f}s", len(result.pairs)])
        print()
        print(format_table(["variant", "candidate pairs verified",
                            "duplicate results", "simulated run time", "pairs"],
                           rows,
                           title="Ablation: VCL super-element grouping "
                                 f"(small dataset, {measure}, t = {THRESHOLD})"))

        plain = outcomes["no grouping"]
        assert not isinstance(plain, MemoryBudgetExceeded)
        for name, result in outcomes.items():
            if name == "no grouping" or isinstance(result, MemoryBudgetExceeded):
                # Coarse grouping concentrates whole multisets on few
                # reducers — an even harsher overhead than the superfluous
                # pairs the paper measured.
                continue
            # Grouping never changes the final result (superfluous pairs are
            # weeded out by exact verification) but verifies at least as
            # many candidates as the ungrouped run.
            assert {p.pair for p in result.pairs} == {p.pair for p in plain.pairs}
            assert (result.counters()["vcl/pairs_verified"]
                    >= plain.counters()["vcl/pairs_verified"])
