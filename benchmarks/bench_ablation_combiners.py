"""Ablation: dedicated combiners on vs off.

The paper (section 2, footnote 2, and section 5) chooses dedicated combiners
for every aggregation "to conserve the network bandwidth" and to reduce the
load of the slowest reducers.  This ablation runs the Online-Aggregation
pipeline (``ruzicka``) and the Sharding and Lookup pipelines (``jaccard``,
a set measure, whose ``Uni`` combiners fold the unit contributions) with and
without combiners and reports the shuffle volume and the simulated run
time; the pairs must be identical either way.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.engine import JoinSpec, SimilarityEngine
from repro.mapreduce.costmodel import CostParameters

#: ``(series key, algorithm, measure)``: the series ``variants`` holds the
#: Online-Aggregation runs, ``jaccard`` the other two pipelines.
PIPELINES = (("variants", "online_aggregation", "ruzicka"),
             ("jaccard", "sharding", "jaccard"),
             ("jaccard", "lookup", "jaccard"))


def shuffle_bytes(result) -> int:
    return sum(stats.shuffle_bytes for stats in result.pipeline.job_stats)


def test_ablation_combiners(small_dataset, cluster_500, cost_parameters,
                            bench_record):
    multisets = small_dataset.multisets

    with SimilarityEngine(multisets, cluster=cluster_500,
                          cost_parameters=cost_parameters) as engine:
        outcomes = {(algorithm, measure, use_combiners): engine.run(JoinSpec(
                        algorithm=algorithm, measure=measure, threshold=0.5,
                        use_combiners=use_combiners))
                    for _series, algorithm, measure in PIPELINES
                    for use_combiners in (True, False)}
    rows = []
    for series, algorithm, measure in PIPELINES:
        variants = {}
        for use_combiners in (True, False):
            result = outcomes[algorithm, measure, use_combiners]
            variants["combiners_on" if use_combiners else "combiners_off"] = {
                "shuffle_bytes": shuffle_bytes(result),
                "simulated_seconds": result.simulated_seconds,
                "num_pairs": len(result.pairs),
            }
            rows.append([f"{algorithm} ({measure})",
                         "on" if use_combiners else "off",
                         f"{shuffle_bytes(result):,}",
                         f"{result.simulated_seconds:,.0f}s",
                         len(result.pairs)])
        if series == "variants":
            bench_record["variants"] = variants
        else:
            bench_record.setdefault(series, {})[algorithm] = variants
    print()
    print(format_table(["pipeline", "dedicated combiners",
                        "total shuffle bytes", "simulated run time", "pairs"],
                       rows,
                       title="Ablation: dedicated combiners (small dataset)"))

    for _series, algorithm, measure in PIPELINES:
        with_combiners = outcomes[algorithm, measure, True]
        without_combiners = outcomes[algorithm, measure, False]
        assert with_combiners.pairs == without_combiners.pairs, algorithm
        assert (shuffle_bytes(with_combiners)
                < shuffle_bytes(without_combiners)), algorithm
    assert isinstance(cost_parameters, CostParameters)
