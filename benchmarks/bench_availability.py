"""Availability under replica failures: QPS and error rate vs kills.

Two experiments over the replicated serving tier (PR 8), both driving the
service directly from concurrent threads with *injected* per-replica-call
latency (a seeded :class:`~repro.resilience.faults.FaultPolicy`), so the
replica lock — not Python execution — is the bottleneck and the effect of
replication is visible on one machine:

* **read scaling** — a Zipf-skewed (hot-key) threshold workload replayed
  against fleets of replication factor 1, 2 and 4.  Reads spread over
  replicas round-robin, each paying the injected latency under its
  replica's lock, so sustainable QPS grows with the replica count;
* **availability** — a replication-factor-2 fleet replayed while replicas
  die: with one replica killed per shard (``f = 1``) the error rate stays
  exactly zero and answers remain bit-identical to an unsharded-index oracle;
  killing *both* replicas of a shard surfaces clean
  :class:`~repro.core.exceptions.ReplicaUnavailableError` answers instead
  of wrong ones, and recovery restores error-free exact serving.
"""

from __future__ import annotations

import os
import threading
import time

from benchmarks.conftest import SMOKE, run_once
from repro.analysis.reporting import format_table
from repro.core.exceptions import ReproError
from repro.datasets.workload import QueryWorkloadConfig, generate_query_workload
from repro.resilience import FaultPolicy, ReplicatedSimilarityService
from repro.serving.api import QueryRequest
from repro.serving.index import SimilarityIndex

THRESHOLD = 0.5
NUM_SHARDS = 2
NUM_THREADS = 8
NUM_QUERIES = 64 if SMOKE else 160
#: Injected latency per replica call; large against the query's own cost,
#: so throughput is bounded by replica locks and scales with replication.
INJECTED_LATENCY = 0.002 if SMOKE else 0.004


def make_fleet(multisets, replication_factor: int,
               latency: float = INJECTED_LATENCY):
    """A replicated fleet with seeded injected latency on every replica."""
    service = ReplicatedSimilarityService(
        "ruzicka", NUM_SHARDS, replication_factor=replication_factor,
        fault_policy_factory=lambda shard, replica: FaultPolicy(
            seed=shard * 97 + replica, latency_seconds=latency))
    service.bulk_load(multisets)
    return service


def replay(service, queries) -> dict[str, float]:
    """Replay the workload from concurrent threads; count errors cleanly."""
    requests = [QueryRequest.threshold(query, THRESHOLD)
                for query in queries]
    matches = [0] * NUM_THREADS
    errors = [0] * NUM_THREADS

    def worker(thread_index: int) -> None:
        for request_index in range(thread_index, len(requests), NUM_THREADS):
            try:
                matches[thread_index] += len(
                    service.query(requests[request_index]))
            except ReproError:
                errors[thread_index] += 1

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(NUM_THREADS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return {
        "elapsed_seconds": elapsed,
        "qps": len(requests) / elapsed if elapsed > 0 else float("inf"),
        "total_matches": sum(matches),
        "errors": sum(errors),
        "error_rate": sum(errors) / len(requests),
    }


def hot_key_workload(multisets):
    return generate_query_workload(
        multisets,
        QueryWorkloadConfig(num_queries=NUM_QUERIES, zipf_exponent=1.3,
                            seed=2012))


def test_read_qps_scales_with_replication(benchmark, small_dataset,
                                          bench_record):
    multisets = small_dataset.multisets
    queries = hot_key_workload(multisets)
    oracle = SimilarityIndex("ruzicka")
    oracle.bulk_load(multisets)
    expected_matches = sum(
        len(oracle.query(QueryRequest.threshold(query, THRESHOLD)))
        for query in queries)

    def run():
        results = []
        for replication_factor in (1, 2, 4):
            fleet = make_fleet(multisets, replication_factor)
            outcome = replay(fleet, queries)
            outcome["replication_factor"] = replication_factor
            results.append(outcome)
        return results

    results = run_once(benchmark, run)
    bench_record["num_queries"] = NUM_QUERIES
    bench_record["injected_latency_seconds"] = INJECTED_LATENCY
    bench_record["fleets"] = results
    print()
    print(format_table(
        ["replication", "queries/sec", "errors", "matches"],
        [[row["replication_factor"], f"{row['qps']:,.0f}",
          row["errors"], row["total_matches"]] for row in results],
        title=f"Read QPS vs replication factor: {NUM_QUERIES} Zipf-skewed "
              f"queries, {INJECTED_LATENCY * 1000:.0f}ms injected latency "
              f"per replica call"))

    for row in results:
        # Replication is invisible to correctness: zero errors, and the
        # answer volume matches the unsharded oracle bit-for-bit.
        assert row["errors"] == 0
        assert row["total_matches"] == expected_matches
    if not SMOKE:
        # With the replica lock as the bottleneck, doubling the replicas
        # must buy real throughput (well under 2x is fine; none is not).
        by_rf = {row["replication_factor"]: row["qps"] for row in results}
        assert by_rf[2] > 1.3 * by_rf[1]
        assert by_rf[4] > by_rf[1]


def test_availability_under_replica_failures(benchmark, small_dataset,
                                             bench_record, tmp_path):
    multisets = small_dataset.multisets
    queries = hot_key_workload(multisets)
    oracle = SimilarityIndex("ruzicka")
    oracle.bulk_load(multisets)
    expected_matches = sum(
        len(oracle.query(QueryRequest.threshold(query, THRESHOLD)))
        for query in queries)

    def run():
        fleet = make_fleet(multisets, 2)
        snapshot_dir = str(tmp_path / "snapshot")
        fleet.persist(snapshot_dir)
        phases = []

        def phase(name, killed_per_shard):
            outcome = replay(fleet, queries)
            outcome["phase"] = name
            outcome["killed_per_shard"] = killed_per_shard
            phases.append(outcome)

        phase("healthy (f=0)", 0)
        for shard in range(NUM_SHARDS):
            fleet.kill_replica(shard, shard % 2)
        phase("one replica killed per shard (f=1)", 1)
        # Total outage of shard 0: both replicas down.  Fan-out queries
        # now fail cleanly instead of answering wrong.
        fleet.kill_replica(0, (0 + 1) % 2)
        phase("shard 0 fully down", 2)
        # A fully-down shard has no peer left: its first replica rebuilds
        # from durable storage, after which the rest recover peer-to-peer.
        fleet.recover_replica(0, 0,
                              source=os.path.join(snapshot_dir,
                                                  "shard0000.sqlite"))
        fleet.recover_replica(0, 1)
        fleet.recover_replica(1, 1)
        phase("recovered", 0)
        return phases

    phases = run_once(benchmark, run)
    bench_record["num_queries"] = NUM_QUERIES
    bench_record["injected_latency_seconds"] = INJECTED_LATENCY
    bench_record["phases"] = phases
    print()
    print(format_table(
        ["phase", "killed/shard", "queries/sec", "error rate", "matches"],
        [[row["phase"], row["killed_per_shard"], f"{row['qps']:,.0f}",
          f"{row['error_rate']:.0%}", row["total_matches"]]
         for row in phases],
        title=f"Availability vs killed replicas: RF=2, {NUM_SHARDS} shards, "
              f"{NUM_QUERIES} queries per phase"))

    by_phase = {row["phase"]: row for row in phases}
    # f <= 1: zero errors and bit-exact parity with the unsharded oracle.
    for name in ("healthy (f=0)", "one replica killed per shard (f=1)",
                 "recovered"):
        assert by_phase[name]["errors"] == 0
        assert by_phase[name]["total_matches"] == expected_matches
    # A full shard outage fails every fan-out query cleanly (no partial or
    # wrong answers), and the process survives to recover.
    outage = by_phase["shard 0 fully down"]
    assert outage["error_rate"] == 1.0
    assert outage["total_matches"] == 0
