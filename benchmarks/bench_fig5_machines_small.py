"""Figure 5: run time vs number of machines on the small dataset (t = 0.5).

Expected shape (paper section 7.1): the V-SMART-Join algorithms keep
speeding up as machines are added (Online-Aggregation improves the most,
Lookup the least because of its fixed table-load overhead), while VCL
plateaus — its bottleneck is the single mapper holding the largest multiset,
which no amount of extra machines helps.
"""

from __future__ import annotations

from benchmarks.conftest import DEFAULT_SHARDING_C, MACHINE_GRID, base_cluster
from repro.analysis.experiments import machine_sweep
from repro.analysis.reporting import format_sweep_table, relative_drop

ALGORITHMS = ("online_aggregation", "lookup", "sharding", "vcl")


def test_fig5_machine_sweep_small(small_dataset, cost_parameters, bench_record):
    # prune_candidates=False: the figure reproduces the paper's
    # cross-algorithm cost orderings, which are calibrated to the
    # unpruned candidate stream.
    sweep = machine_sweep(ALGORITHMS, small_dataset.multisets, MACHINE_GRID,
                          base_cluster=base_cluster(), threshold=0.5,
                          sharding_threshold=DEFAULT_SHARDING_C,
                          cost_parameters=cost_parameters,
                          prune_candidates=False, keep_pairs=False)
    bench_record["simulated_seconds"] = {
        machines: {name: outcome.simulated_seconds
                   for name, outcome in outcomes.items()}
        for machines, outcomes in sweep.items()}
    print()
    print(format_sweep_table(sweep, ALGORITHMS, "machines",
                             title="Fig. 5: simulated run time vs number of machines "
                                   "(small dataset, t = 0.5)"))

    fewest, most = min(sweep), max(sweep)
    drops = {}
    for algorithm in ALGORITHMS:
        drops[algorithm] = relative_drop(sweep[fewest][algorithm].simulated_seconds,
                                         sweep[most][algorithm].simulated_seconds)
    bench_record["relative_drop"] = drops
    print()
    print("Relative run-time reduction from "
          f"{fewest} to {most} machines (paper: OA 53%, Lookup 32%, VCL 35%):")
    for algorithm, drop in drops.items():
        print(f"  {algorithm:>20}: {drop * 100:.0f}%")

    # Every V-SMART-Join algorithm keeps benefiting from extra machines.
    for algorithm in ("online_aggregation", "lookup", "sharding"):
        assert drops[algorithm] > 0.2
    # VCL benefits the least: its bottleneck mapper is machine-count-independent.
    assert drops["vcl"] < min(drops[a] for a in ("online_aggregation", "lookup", "sharding"))
    # Online-Aggregation improves at least as much as Lookup (fixed table load).
    assert drops["online_aggregation"] >= drops["lookup"] - 0.02
    # Beyond ~500 machines VCL barely moves (the paper's plateau).
    middle = 500 if 500 in sweep else sorted(sweep)[len(sweep) // 2]
    assert (sweep[middle]["vcl"].simulated_seconds
            - sweep[most]["vcl"].simulated_seconds) < 0.1 * sweep[middle]["vcl"].simulated_seconds
