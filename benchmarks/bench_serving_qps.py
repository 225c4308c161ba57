"""Serving throughput: replay a Zipf-skewed query workload, 1 vs 4 shards.

Indexes the small synthetic preset into the online serving layer and
replays a skewed threshold-query workload against a single-node fleet and a
four-shard fleet, reporting wall-clock queries/sec and the LRU cache hit
rate.  The Zipf skew of real query traffic is what makes the result cache
pay: the popular head of the workload is served from memory, so the hit
rate reported here is also the fraction of traffic that never touches a
posting list.
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once
from repro.analysis.reporting import format_table
from repro.datasets.workload import (
    QueryWorkloadConfig,
    generate_query_workload,
    workload_statistics,
)
from repro.serving.api import QueryRequest
from repro.serving.service import ReplicatedSimilarityService

#: Threshold served by the replay (the paper's headline setting).
THRESHOLD = 0.5
NUM_QUERIES = 400
CACHE_CAPACITY = 256


def _replay(num_shards: int, multisets, queries) -> dict[str, float]:
    """Load a fleet, replay the workload, return throughput and hit rate."""
    service = ReplicatedSimilarityService("ruzicka", num_shards,
                                          replication_factor=1,
                                          cache_capacity=CACHE_CAPACITY)
    service.bulk_load(multisets)
    started = time.perf_counter()
    total_matches = 0
    for query in queries:
        total_matches += len(service.query(
            QueryRequest.threshold(query, THRESHOLD)))
    elapsed = time.perf_counter() - started
    stats = service.stats()
    return {
        "num_shards": num_shards,
        "elapsed_seconds": elapsed,
        "qps": len(queries) / elapsed if elapsed > 0 else float("inf"),
        "cache_hit_rate": stats["cache/hit_rate"],
        "total_matches": total_matches,
    }


def test_serving_qps_one_vs_four_shards(benchmark, small_dataset, bench_record):
    multisets = small_dataset.multisets
    queries = generate_query_workload(
        multisets, QueryWorkloadConfig(num_queries=NUM_QUERIES,
                                       zipf_exponent=1.3, seed=2012))
    workload = workload_statistics(queries)

    def run():
        return [_replay(1, multisets, queries),
                _replay(4, multisets, queries)]

    results = run_once(benchmark, run)
    bench_record["workload"] = workload
    bench_record["fleets"] = results
    rows = [[row["num_shards"],
             f"{row['qps']:,.0f}",
             f"{row['cache_hit_rate']:.1%}",
             f"{row['elapsed_seconds'] * 1000:,.0f}ms",
             row["total_matches"]] for row in results]
    print()
    print(format_table(
        ["shards", "queries/sec", "cache hit rate", "replay time", "matches"],
        rows,
        title=f"Serving QPS: {NUM_QUERIES} Zipf-skewed threshold queries "
              f"(t = {THRESHOLD}) over {len(multisets)} multisets "
              f"({workload['distinct_queries']} distinct, "
              f"{workload['repeat_rate']:.0%} repeats)"))

    single, sharded = results
    # Both fleet shapes serve the identical answer volume.
    assert single["total_matches"] == sharded["total_matches"]
    # The Zipf head repeats, so the LRU absorbs a meaningful share.
    assert single["cache_hit_rate"] > 0.2
    assert sharded["cache_hit_rate"] > 0.2
