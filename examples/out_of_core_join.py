"""An out-of-core join on the ``"disk"`` execution backend.

Run with::

    python examples/out_of_core_join.py

The example generates a synthetic IP–cookie corpus, then runs the same
join twice: on the default in-memory serial backend and on the
:class:`~repro.mapreduce.DiskShuffleBackend` with a spill budget
deliberately far smaller than the shuffle, so the join genuinely goes out
of core and reports its spill telemetry.  Both produce bit-identical pairs
— the point of the exercise — and the cost model's disk-bandwidth term
shows up in the plan when spilling is charged.
"""

from __future__ import annotations

from repro.datasets import IPCookieConfig, generate_ip_cookie_dataset
from repro.engine import JoinSpec, SimilarityEngine
from repro.mapreduce import get_backend
from repro.mapreduce.costmodel import CostParameters


def main() -> None:
    dataset = generate_ip_cookie_dataset(IPCookieConfig(
        num_ips=120, num_cookies=600, num_proxy_groups=4,
        ips_per_proxy_group=4, cookies_per_proxy_pool=30))
    corpus = dataset.multisets
    print(f"Corpus: {len(corpus)} IPs, "
          f"{sum(len(m) for m in corpus)} (ip, cookie) observations")
    print()

    spec = JoinSpec(measure="ruzicka", threshold=0.4,
                    algorithm="online_aggregation")
    engine = SimilarityEngine(corpus)

    # 1. The reference: everything in memory, one process.
    baseline = engine.run(spec)
    print(f"serial   backend: {len(baseline.pairs)} pairs")

    # 2. Out of core: a 64 KiB spill budget forces the shuffle to disk.
    #    (Production would use the default 32 MiB budget.)
    budget = 64 * 1024
    disk = get_backend("disk", memory_budget_bytes=budget, merge_fan_in=4)
    disk_result = SimilarityEngine(corpus).run(
        JoinSpec(measure="ruzicka", threshold=0.4,
                 algorithm="online_aggregation", backend=disk))
    counters = disk_result.counters()
    shuffled = sum(stats.shuffle_bytes
                   for stats in disk_result.pipeline.job_stats)
    print(f"disk     backend: {len(disk_result.pairs)} pairs — shuffled "
          f"{shuffled:,} bytes through a {budget:,}-byte budget")
    print(f"  shuffle/runs_written     = {counters['shuffle/runs_written']}")
    print(f"  shuffle/bytes_spilled    = {counters['shuffle/bytes_spilled']:,}")
    print(f"  shuffle/merge_passes     = {counters['shuffle/merge_passes']}")
    print(f"  shuffle/spilled_records  = {counters['shuffle/spilled_records']:,}")
    print(f"  shuffle/peak_buffer_bytes = {counters['shuffle/peak_buffer_bytes']:,}"
          f" (largest of the per-job peaks)")
    print()

    assert disk_result.pairs == baseline.pairs
    assert counters["shuffle/peak_buffer_bytes"] <= budget
    print("Both backends returned bit-identical pairs.")
    print()

    # Charging spilled bytes in the cost model makes the planner's EXPLAIN
    # grow a `disk` column, so algorithm="auto" stays honest out of core.
    plan = SimilarityEngine(
        corpus,
        cost_parameters=CostParameters(disk_bandwidth=200e6),
    ).plan(JoinSpec(measure="ruzicka", threshold=0.4, algorithm="auto"))
    print(plan.explain())


if __name__ == "__main__":
    main()
