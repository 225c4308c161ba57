"""Figure 4: run time vs similarity threshold on the small dataset.

The paper runs every algorithm on 500 machines with the Ruzicka measure and
sweeps t from 0.1 to 0.9.  Expected shape (paper section 7.1): all
algorithms produce the same number of pairs at every threshold; the three
V-SMART-Join algorithms are nearly insensitive to t and ordered
Online-Aggregation < Lookup < Sharding with slight differences; VCL is
several times slower everywhere, strongly t-dependent, and worst at t=0.1.
"""

from __future__ import annotations

from benchmarks.conftest import DEFAULT_SHARDING_C, THRESHOLD_GRID
from repro.analysis.experiments import agreement_check, threshold_sweep
from repro.analysis.reporting import format_sweep_table, speedup

ALGORITHMS = ("online_aggregation", "lookup", "sharding", "vcl")


def test_fig4_threshold_sweep(small_dataset, cluster_500, cost_parameters,
                              bench_record):
    # prune_candidates=False: the figure reproduces the paper's
    # cross-algorithm cost orderings, which are calibrated to the
    # unpruned candidate stream.
    sweep = threshold_sweep(ALGORITHMS, small_dataset.multisets, THRESHOLD_GRID,
                            cluster=cluster_500,
                            sharding_threshold=DEFAULT_SHARDING_C,
                            cost_parameters=cost_parameters,
                            prune_candidates=False, keep_pairs=False)
    bench_record["simulated_seconds"] = {
        threshold: {name: outcome.simulated_seconds
                    for name, outcome in outcomes.items()}
        for threshold, outcomes in sweep.items()}
    bench_record["num_pairs"] = {
        threshold: outcomes["online_aggregation"].num_pairs
        for threshold, outcomes in sweep.items()}
    print()
    print(format_sweep_table(sweep, ALGORITHMS, "threshold",
                             title="Fig. 4: simulated run time vs similarity threshold "
                                   "(small dataset, 500 machines)"))
    pair_rows = [[threshold, outcomes["online_aggregation"].num_pairs]
                 for threshold, outcomes in sorted(sweep.items())]
    print()
    print("Similar pairs found per threshold (identical for every algorithm):")
    for threshold, pairs in pair_rows:
        print(f"  t={threshold}: {pairs}")

    for threshold, outcomes in sweep.items():
        # "all the algorithms produced the same number of similar pairs"
        assert agreement_check(outcomes.values()), threshold
        oa = outcomes["online_aggregation"]
        vcl = outcomes["vcl"]
        assert oa.finished and vcl.finished
        # VCL is never close to the V-SMART-Join algorithms.
        assert vcl.simulated_seconds > 1.5 * oa.simulated_seconds
        # Ordering among the joining algorithms.
        assert oa.simulated_seconds <= outcomes["lookup"].simulated_seconds + 1e-6
        assert (outcomes["lookup"].simulated_seconds
                <= outcomes["sharding"].simulated_seconds + 1e-6)

    lowest = sweep[min(sweep)]
    highest = sweep[max(sweep)]
    factor_low = speedup(lowest["vcl"].simulated_seconds,
                         lowest["online_aggregation"].simulated_seconds)
    factor_high = speedup(highest["vcl"].simulated_seconds,
                          highest["online_aggregation"].simulated_seconds)
    print()
    print(f"VCL / Online-Aggregation speedup: {factor_low:.1f}x at t={min(sweep)}, "
          f"{factor_high:.1f}x at t={max(sweep)} "
          "(paper reports 30x and 5x on the full-size dataset).")
    # VCL's disadvantage shrinks as the threshold rises (prefix filtering
    # becomes effective), as in the paper.
    assert factor_low > factor_high
