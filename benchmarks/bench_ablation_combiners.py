"""Ablation: dedicated combiners on vs off.

The paper (section 2, footnote 2, and section 5) chooses dedicated combiners
for every aggregation "to conserve the network bandwidth" and to reduce the
load of the slowest reducers.  This ablation runs the Online-Aggregation
pipeline with and without combiners and reports the shuffle volume and the
simulated run time; the results must be identical either way.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.engine import JoinSpec, SimilarityEngine
from repro.mapreduce.costmodel import CostParameters


def test_ablation_combiners(small_dataset, cluster_500, cost_parameters,
                            bench_record):
    multisets = small_dataset.multisets

    with SimilarityEngine(multisets, cluster=cluster_500,
                          cost_parameters=cost_parameters) as engine:
        outcomes = {use_combiners: engine.run(JoinSpec(
                        algorithm="online_aggregation", threshold=0.5,
                        use_combiners=use_combiners))
                    for use_combiners in (True, False)}
    bench_record["variants"] = {
        "combiners_on" if use_combiners else "combiners_off": {
            "shuffle_bytes": sum(s.shuffle_bytes for s in result.pipeline.job_stats),
            "simulated_seconds": result.simulated_seconds,
            "num_pairs": len(result.pairs),
        }
        for use_combiners, result in outcomes.items()}
    rows = []
    for use_combiners, result in outcomes.items():
        shuffle = sum(stats.shuffle_bytes for stats in result.pipeline.job_stats)
        rows.append(["on" if use_combiners else "off",
                     f"{shuffle:,}", f"{result.simulated_seconds:,.0f}s",
                     len(result.pairs)])
    print()
    print(format_table(["dedicated combiners", "total shuffle bytes",
                        "simulated run time", "pairs"], rows,
                       title="Ablation: dedicated combiners (Online-Aggregation, small dataset)"))

    with_combiners, without_combiners = outcomes[True], outcomes[False]
    assert {p.pair for p in with_combiners.pairs} == {p.pair for p in without_combiners.pairs}
    assert (sum(s.shuffle_bytes for s in with_combiners.pipeline.job_stats)
            < sum(s.shuffle_bytes for s in without_combiners.pipeline.job_stats))
    assert isinstance(cost_parameters, CostParameters)
