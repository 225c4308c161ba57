"""Availability under replica failures: errors and matches per phase.

A replication-factor-2 fleet is driven directly from concurrent threads
with *injected* per-replica-call latency (a seeded
:class:`~repro.resilience.faults.FaultPolicy`), so requests genuinely
overlap on the replica locks, and replayed while replicas die: with one
replica killed per shard (``f = 1``) the error rate stays exactly zero and
answers remain bit-identical to an unsharded-index oracle; killing *both*
replicas of a shard surfaces clean
:class:`~repro.core.exceptions.ReplicaUnavailableError` answers instead of
wrong ones, and recovery restores error-free exact serving.  Errors and
match volumes per phase are exact and gated; what a kill costs in latency
is the harness's business (``benchmarks/e2e``; its availability-under-kill
rung is ROADMAP item 4's).
"""

from __future__ import annotations

import os
import threading

from benchmarks.conftest import SMOKE
from repro.analysis.reporting import format_table
from repro.core.exceptions import ReproError
from repro.datasets.workload import QueryWorkloadConfig, generate_query_workload
from repro.resilience import FaultPolicy
from repro.serving import ReplicatedSimilarityService
from repro.serving.api import QueryRequest
from repro.serving.index import SimilarityIndex

THRESHOLD = 0.5
NUM_SHARDS = 2
NUM_THREADS = 8
NUM_QUERIES = 64 if SMOKE else 160
#: Injected latency per replica call; large against the query's own cost,
#: so the threads' requests overlap on the replica locks.
INJECTED_LATENCY = 0.002 if SMOKE else 0.004


def make_fleet(multisets):
    """An RF-2 fleet with seeded injected latency on every replica."""
    service = ReplicatedSimilarityService(
        "ruzicka", NUM_SHARDS, replication_factor=2,
        fault_policy_factory=lambda shard, replica: FaultPolicy(
            seed=shard * 97 + replica, latency_seconds=INJECTED_LATENCY))
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
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "total_matches": sum(matches),
        "errors": sum(errors),
        "error_rate": sum(errors) / len(requests),
    }


def test_availability_under_replica_failures(small_dataset, bench_record,
                                             tmp_path):
    multisets = small_dataset.multisets
    queries = generate_query_workload(
        multisets, QueryWorkloadConfig(num_queries=NUM_QUERIES,
                                       zipf_exponent=1.3, seed=2012))
    oracle = SimilarityIndex("ruzicka")
    oracle.bulk_load(multisets)
    expected_matches = sum(
        len(oracle.query(QueryRequest.threshold(query, THRESHOLD)))
        for query in queries)

    fleet = make_fleet(multisets)
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

    bench_record["num_queries"] = NUM_QUERIES
    bench_record["injected_latency_seconds"] = INJECTED_LATENCY
    bench_record["phases"] = phases
    print()
    print(format_table(
        ["phase", "killed/shard", "error rate", "matches"],
        [[row["phase"], row["killed_per_shard"],
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
