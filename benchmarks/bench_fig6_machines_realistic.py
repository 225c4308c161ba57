"""Figure 6: run time vs number of machines on the realistic dataset (t = 0.5).

Expected shape (paper section 7.2): Lookup never finishes because the lookup
table mapping every multiset to Uni(Mi) does not fit in a machine's memory;
VCL never finishes either (it cannot load the frequency-sorted alphabet, and
the hash-ordered fallback still dies on whole-multiset records / the
scheduler); Online-Aggregation and Sharding both scale out with the machine
count, with Online-Aggregation the faster of the two, and the shared
similarity phase reported separately from the joining phase.
"""

from __future__ import annotations

from benchmarks.conftest import DEFAULT_SHARDING_C, MACHINE_GRID, base_cluster
from repro.analysis.experiments import run_algorithm
from repro.analysis.reporting import format_table, outcome_cell

SCALING_ALGORITHMS = ("online_aggregation", "sharding")


def test_fig6_machine_sweep_realistic(realistic_dataset, cost_parameters,
                                      bench_record):
    multisets = realistic_dataset.multisets

    failures = {}
    # Lookup and VCL fail for machine-count-independent reasons (memory);
    # run them once at the default fleet size, as the paper reports.
    # The whole figure pins prune_candidates=False (the paper's unpruned
    # candidate stream).  Lookup's failure rests on PAPER_SCALED_MEMORY
    # sitting below the realistic preset's interned lookup table — see
    # the measured window at that constant.
    for algorithm, options in (("lookup", {}),
                               ("vcl", {"vcl_element_order": "frequency"}),
                               ("vcl_hash_order", {"vcl_element_order": "hash"})):
        name = "vcl" if algorithm.startswith("vcl") else algorithm
        failures[algorithm] = run_algorithm(
            name, multisets, threshold=0.5, cluster=base_cluster(),
            sharding_threshold=DEFAULT_SHARDING_C, prune_candidates=False,
            cost_parameters=cost_parameters, keep_pairs=False, **options)
    sweep = {}
    for machines in MACHINE_GRID:
        cluster = base_cluster().with_machines(machines)
        sweep[machines] = {
            algorithm: run_algorithm(algorithm, multisets, threshold=0.5,
                                     cluster=cluster,
                                     sharding_threshold=DEFAULT_SHARDING_C,
                                     cost_parameters=cost_parameters,
                                     prune_candidates=False,
                                     keep_pairs=False)
            for algorithm in SCALING_ALGORITHMS
        }
    bench_record["failures"] = {name: outcome.status
                                for name, outcome in failures.items()}
    bench_record["scaling"] = {
        machines: {name: {"total": outcome.simulated_seconds,
                          "joining": outcome.joining_seconds,
                          "similarity": outcome.similarity_seconds}
                   for name, outcome in outcomes.items()}
        for machines, outcomes in sweep.items()}
    # The figure's central ordering holds by a few percent at this scale, so
    # the margin is a tracked series: a drift towards 1.0 shows in the
    # baseline diff long before the assertion below flips.
    bench_record["oa_over_sharding"] = {
        machines: (outcomes["online_aggregation"].simulated_seconds
                   / outcomes["sharding"].simulated_seconds)
        for machines, outcomes in sweep.items()}

    print()
    print("Fig. 6 (realistic dataset, t = 0.5):")
    print(f"  Lookup:                     {outcome_cell(failures['lookup'])}")
    print(f"  VCL (frequency-sorted):     {outcome_cell(failures['vcl'])}")
    print(f"  VCL (hash-ordered retry):   {outcome_cell(failures['vcl_hash_order'])}")
    rows = []
    for machines in sorted(sweep):
        row = [machines]
        for algorithm in SCALING_ALGORITHMS:
            outcome = sweep[machines][algorithm]
            row.append(outcome_cell(outcome))
            row.append(f"{outcome.joining_seconds:,.0f}s")
            row.append(f"{outcome.similarity_seconds:,.0f}s")
        rows.append(row)
    print()
    print(format_table(
        ["machines",
         "online_aggregation total", "OA joining", "OA similarity",
         "sharding total", "Sharding joining", "Sharding similarity"],
        rows,
        title="Simulated run time vs machines (joining and similarity phases split)"))

    # The paper's qualitative findings.
    assert failures["lookup"].status == "out_of_memory"
    assert failures["vcl"].status == "out_of_memory"
    assert not failures["vcl_hash_order"].finished
    fewest, most = min(sweep), max(sweep)
    for algorithm in SCALING_ALGORITHMS:
        assert sweep[fewest][algorithm].finished
        assert (sweep[most][algorithm].simulated_seconds
                < sweep[fewest][algorithm].simulated_seconds)
    for machines in sweep:
        oa = sweep[machines]["online_aggregation"]
        sharding = sweep[machines]["sharding"]
        assert oa.num_pairs == sharding.num_pairs
        # Online-Aggregation is the faster of the two (paper: roughly half
        # the time of Sharding; the scaled-down gap is smaller).
        assert oa.simulated_seconds <= sharding.simulated_seconds
        assert oa.joining_seconds <= sharding.joining_seconds
