"""Replicated fault-tolerant serving: the chaos and hardening suite (PR 8).

Four layers of coverage:

* unit tests of the resilience primitives — :class:`FaultPolicy`
  determinism, :class:`CircuitBreaker` state machine (fake clock),
  :class:`RetryPolicy`/:class:`RetrySchedule` backoff and deadlines;
* :class:`ReplicatedShard` / :class:`ReplicatedSimilarityService`
  semantics at replication factors 1, 2 and 3 — fan-in, divergence
  detection, failover, kill/recover, persist/recover across factors, and
  bit-exact parity with one unsharded :class:`SimilarityIndex` in every
  healthy and degraded configuration;
* a Hypothesis chaos state machine interleaving writes, queries, replica
  kills, whole-shard losses and recoveries, asserting that answers stay
  bit-identical to that oracle whenever every shard keeps one healthy
  replica (and that a shard with none refuses rather than answers);
* wire-level hardening — client retry/timeout/breaker behaviour against a
  live :class:`InProcessServer`, brownout degradation, per-request 504s,
  the replica admin endpoints, and graceful drain under injected latency.
"""

from __future__ import annotations

import asyncio
import http.client
import logging
import pickle
import random
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import HealthCheck, settings as hyp_settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    InjectedFaultError,
    QueueFullError,
    ReplicaDivergenceError,
    ReplicaUnavailableError,
    ResilienceError,
    ServingError,
)
from repro.core.multiset import Multiset
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    FaultPolicy,
    RetryPolicy,
)
from repro.server.app import ServerConfig, SimilarityServerApp
from repro.server.client import (
    ClientTransportError,
    RemoteServerError,
    SimilarityClient,
)
from repro.server.errors import classify, error_body
from repro.server.http import InProcessServer
from repro.serving import ReplicatedShard, ReplicatedSimilarityService
from repro.serving.api import QueryRequest
from repro.serving.index import SimilarityIndex
from repro.serving.node import ServingNode
from repro.telemetry import is_counter
from tests.conftest import SOURCE_ROOT, make_random_multisets


#: The replication factors every fleet-level behaviour is checked at.
RFS = (1, 2, 3)


def corpus(count: int = 36, seed: int = 11) -> list[Multiset]:
    return make_random_multisets(count, alphabet_size=40, max_elements=12,
                                 seed=seed)


def probe_request(members, kind: str = "threshold") -> QueryRequest:
    query = members[0].with_id("probe")
    if kind == "threshold":
        return QueryRequest.threshold(query, 0.3)
    return QueryRequest.topk(query, 5)


def test_package_imports_nothing_above_core():
    """Storage and the shuffle can mount the fault seam: the package pulls
    in no serving tier.  ``import repro`` imports no tier (its names resolve
    on first use), so a fresh interpreter imports only this package."""
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import repro.resilience\n"
        "print(sorted({name.split('.')[1] for name in sys.modules\n"
        "              if name.startswith('repro.')}))\n")
    loaded = subprocess.run([sys.executable, "-c", script, SOURCE_ROOT],
                            check=True, capture_output=True, text=True).stdout
    assert loaded.strip() == "['core', 'resilience', 'telemetry']"


# ---------------------------------------------------------------------------
# FaultPolicy
# ---------------------------------------------------------------------------

class TestFaultPolicy:
    def test_same_seed_injects_the_same_fault_sequence(self):
        def run(seed):
            policy = FaultPolicy(seed=seed, error_probability=0.4,
                                 timeout_probability=0.2)
            outcomes = []
            for _ in range(50):
                try:
                    policy.on_call("op")
                    outcomes.append("ok")
                except InjectedFaultError:
                    outcomes.append("error")
                except DeadlineExceededError:
                    outcomes.append("timeout")
            return outcomes

        assert run(7) == run(7)
        assert run(7) != run(8)
        assert {"ok", "error", "timeout"} <= set(run(7))

    def test_crash_after_calls_then_revive_consumes_the_trigger(self):
        policy = FaultPolicy(crash_after_calls=2)
        policy.on_call("op")
        policy.on_call("op")
        with pytest.raises(ReplicaUnavailableError):
            policy.on_call("op")
        assert policy.crashed
        policy.revive()
        assert not policy.crashed
        # The fired trigger is consumed: the revived target keeps serving.
        for _ in range(5):
            policy.on_call("op")

    def test_manual_crash_and_operation_filter(self):
        policy = FaultPolicy(error_probability=1.0,
                             operations=frozenset({"query"}))
        policy.on_call("add")  # unmatched: never faults, never counts
        assert policy.metrics["calls"] == 0
        with pytest.raises(InjectedFaultError):
            policy.on_call("query")
        policy = FaultPolicy()
        policy.crash()
        with pytest.raises(ReplicaUnavailableError):
            policy.on_call("anything")
        policy.revive()
        policy.on_call("anything")

    def test_latency_injection_sleeps_and_counts(self):
        policy = FaultPolicy(latency_seconds=0.02)
        start = time.monotonic()
        policy.on_call("op")
        assert time.monotonic() - start >= 0.015
        assert policy.stats()["injected_latency_calls"] == 1

    def test_validation(self):
        with pytest.raises(ResilienceError):
            FaultPolicy(error_probability=1.5)
        with pytest.raises(ResilienceError):
            FaultPolicy(latency_seconds=-1)
        with pytest.raises(ResilienceError):
            FaultPolicy(crash_after_calls=-1)


# ---------------------------------------------------------------------------
# CircuitBreaker (fake clock: no sleeping)
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        breaker = CircuitBreaker("t", failure_threshold=3,
                                 reset_timeout_seconds=10.0, clock=clock,
                                 **kwargs)
        return breaker, clock

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.allow()
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError) as caught:
            breaker.allow()
        assert 0 < caught.value.retry_after_seconds <= 10.0

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.allow()
            breaker.record_failure()
        breaker.allow()
        breaker.record_success()
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_probe_success_closes(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.allow()
            breaker.record_failure()
        clock.advance(10.1)
        assert breaker.state == HALF_OPEN
        breaker.allow()  # the probe
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_probe_failure_reopens_for_a_full_window(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.allow()
            breaker.record_failure()
        clock.advance(10.1)
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        assert breaker.stats()["opens"] == 2

    def test_half_open_probe_quota_is_bounded(self):
        breaker, clock = self.make(half_open_max_probes=1)
        for _ in range(3):
            breaker.allow()
            breaker.record_failure()
        clock.advance(10.1)
        breaker.allow()
        with pytest.raises(CircuitOpenError):
            breaker.allow()

    def test_validation(self):
        with pytest.raises(ResilienceError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ResilienceError):
            CircuitBreaker(reset_timeout_seconds=0)
        with pytest.raises(ResilienceError):
            CircuitBreaker(half_open_max_probes=0)


# ---------------------------------------------------------------------------
# RetryPolicy / RetrySchedule
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ResilienceError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ResilienceError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ResilienceError):
            RetryPolicy(deadline_seconds=0)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(max_attempts=10, base_backoff_seconds=0.1,
                             backoff_multiplier=2.0, max_backoff_seconds=0.5,
                             jitter=0.0)
        schedule = policy.schedule(random.Random(0))
        backoffs = []
        for _ in range(5):
            schedule.start_attempt()
            backoffs.append(schedule.backoff_seconds())
        assert backoffs == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_stays_within_the_band_and_is_seeded(self):
        policy = RetryPolicy(max_attempts=50, base_backoff_seconds=1.0,
                             backoff_multiplier=1.0, max_backoff_seconds=1.0,
                             jitter=0.25)
        schedule = policy.schedule(random.Random(42))
        draws = []
        for _ in range(20):
            schedule.start_attempt()
            draws.append(schedule.backoff_seconds())
        assert all(0.75 <= value <= 1.25 for value in draws)
        assert len(set(round(value, 6) for value in draws)) > 1
        replay = policy.schedule(random.Random(42))
        for expected in draws:
            replay.start_attempt()
            assert replay.backoff_seconds() == pytest.approx(expected)

    def test_server_hint_raises_never_lowers_the_backoff(self):
        policy = RetryPolicy(base_backoff_seconds=0.1, jitter=0.0)
        schedule = policy.schedule(random.Random(0))
        schedule.start_attempt()
        assert schedule.backoff_seconds(server_hint=2.0) == 2.0
        assert schedule.backoff_seconds(server_hint=0.001) == \
            pytest.approx(0.1)

    def test_attempt_budget_is_enforced(self):
        schedule = RetryPolicy(max_attempts=2).schedule(random.Random(0))
        schedule.start_attempt()
        schedule.start_attempt()
        assert schedule.attempts_left == 0
        with pytest.raises(ResilienceError, match="budget exhausted"):
            schedule.start_attempt()

    def test_deadline_check_and_refusal_to_oversleep(self):
        clock = FakeClock()
        policy = RetryPolicy(max_attempts=10, base_backoff_seconds=5.0,
                             max_backoff_seconds=5.0, jitter=0.0,
                             deadline_seconds=3.0)
        schedule = policy.schedule(random.Random(0), clock=clock)
        schedule.start_attempt()
        # The 5s backoff does not fit the 3s deadline: raise, don't sleep.
        start = time.monotonic()
        with pytest.raises(DeadlineExceededError) as caught:
            schedule.sleep_before_retry()
        assert time.monotonic() - start < 1.0
        assert caught.value.retry_after_seconds == pytest.approx(5.0)
        clock.advance(3.1)
        with pytest.raises(DeadlineExceededError):
            schedule.check_deadline("probe")
        with pytest.raises(DeadlineExceededError):
            schedule.start_attempt()

    def test_exceptions_pickle_round_trip(self):
        for error in (ReplicaUnavailableError("down", 2.5),
                      CircuitOpenError("open", 0.5),
                      DeadlineExceededError("late", 1.0, 0.25)):
            clone = pickle.loads(pickle.dumps(error))
            assert type(clone) is type(error)
            assert str(clone) == str(error)
            assert clone.retry_after_seconds == error.retry_after_seconds


# ---------------------------------------------------------------------------
# ReplicatedShard
# ---------------------------------------------------------------------------

def members_per_replica(shard) -> list[int]:
    return [len(replica.node) for replica in shard.replicas]


class TestReplicatedShard:
    def test_parity_with_a_single_node_under_churn(self):
        members = corpus()
        shard = ReplicatedShard("ruzicka", 3)
        node = ServingNode("ruzicka")
        shard.bulk_load(members[:20])
        node.bulk_load(members[:20])
        shard.add(members[20])
        node.add(members[20])
        shard.remove(members[3].id)
        node.remove(members[3].id)
        for kind in ("threshold", "topk"):
            request = probe_request(members, kind)
            # Every replica answers identically, so spreading cannot show.
            for _ in range(shard.replication_factor + 1):
                assert shard.query(request) == node.query(request)
        batch = [probe_request(members, "threshold"),
                 probe_request(members, "topk")]
        assert shard.batch(batch) == node.batch(batch)

    def test_deterministic_serving_errors_propagate_without_eject(self):
        shard = ReplicatedShard("ruzicka", 2)
        shard.bulk_load(corpus()[:5])
        with pytest.raises(ServingError):
            shard.add(corpus()[0])  # duplicate add
        with pytest.raises(ServingError):
            shard.remove("ghost")
        assert shard.num_healthy() == 2
        shard.check_divergence()

    def test_bulk_load_rejects_bad_batches_before_any_replica_mutates(self):
        members = corpus()
        shard = ReplicatedShard("ruzicka", 2)
        shard.bulk_load(members[:5])
        # Node bulk loads apply incrementally, so a duplicate rejected
        # mid-batch on the first replica would leave it partially loaded
        # while its peers got nothing.  The shard validates up front: no
        # replica mutates, none diverges, none is ejected.
        with pytest.raises(ServingError, match="already indexed"):
            shard.bulk_load([members[5], members[2], members[6]])
        with pytest.raises(ServingError, match="twice"):
            shard.bulk_load([members[7], members[8], members[7]])
        assert shard.num_healthy() == 2
        assert members_per_replica(shard) == [5, 5]
        shard.check_divergence()
        # Clean batches and replace-mode collisions still load everywhere.
        assert shard.bulk_load(members[5:8]) == 3
        assert shard.bulk_load(members[:8], replace=True) == 8
        shard.check_divergence()
        assert members_per_replica(shard) == [8, 8]

    def test_write_fault_ejects_the_replica_and_survivors_stay_exact(self):
        members = corpus()
        policies = [None, FaultPolicy(crash_after_calls=10)]
        shard = ReplicatedShard("ruzicka", 2, fault_policies=policies)
        node = ServingNode("ruzicka")
        for member in members[:15]:
            shard.add(member)
            node.add(member)
        # Replica 1 crashed mid-stream (after its 10th call) and was
        # ejected; replica 0 kept every write.
        assert shard.num_healthy() == 1
        assert not shard.replicas[1].healthy
        assert "crash" in shard.replicas[1].down_reason
        request = probe_request(members)
        assert shard.query(request) == node.query(request)
        assert shard.stats()["ejections"] == 1

    def test_read_fault_fails_over_and_the_answer_is_exact(self):
        members = corpus()
        policies = [FaultPolicy(error_probability=1.0,
                                operations=frozenset({"query"})), None]
        shard = ReplicatedShard("ruzicka", 2, fault_policies=policies)
        node = ServingNode("ruzicka")
        shard.bulk_load(members[:10])
        node.bulk_load(members[:10])
        request = probe_request(members)
        # Whichever replica round-robin prefers, the faulty one ejects and
        # the healthy one answers.
        assert shard.query(request) == node.query(request)
        assert shard.query(request) == node.query(request)
        assert not shard.replicas[0].healthy
        assert shard.stats()["failovers"] == 1

    def test_all_replicas_down_raises_replica_unavailable(self):
        shard = ReplicatedShard("ruzicka", 2)
        shard.bulk_load(corpus()[:5])
        shard.kill(0)
        shard.kill(1)
        with pytest.raises(ReplicaUnavailableError):
            shard.query(probe_request(corpus()))
        with pytest.raises(ReplicaUnavailableError):
            shard.add(Multiset("new", {"a": 1}))
        with pytest.raises(ReplicaUnavailableError):
            len(shard)

    def test_kill_loses_state_and_peer_recovery_rebuilds_exactly(self):
        members = corpus()
        shard = ReplicatedShard("ruzicka", 2)
        shard.bulk_load(members[:20])
        shard.kill(1)
        assert members_per_replica(shard) == [20, 0]  # the crash lost its memory
        # Writes continue against the survivor.
        shard.add(members[20])
        shard.remove(members[0].id)
        shard.recover(1)
        assert shard.num_healthy() == 2
        assert members_per_replica(shard) == [20, 20]
        request = probe_request(members)
        answers = {shard.query(request) for _ in range(4)}
        assert len(answers) == 1  # both replicas answer identically
        assert shard.stats()["recoveries"] == 1

    def test_recovery_from_storage_source(self, tmp_path):
        members = corpus()
        shard = ReplicatedShard("ruzicka", 2)
        shard.bulk_load(members[:12])
        path = str(tmp_path / "replica.sqlite")
        shard.persist(path)
        shard.kill(1)
        shard.recover(1, source=path)
        assert shard.num_healthy() == 2
        shard.check_divergence()

    def test_recovering_a_healthy_replica_is_refused(self):
        shard = ReplicatedShard("ruzicka", 2)
        with pytest.raises(ResilienceError, match="healthy"):
            shard.recover(0)
        with pytest.raises(ResilienceError, match="no replica"):
            shard.kill(9)

    def test_out_of_band_write_is_divergence(self):
        members = corpus()
        shard = ReplicatedShard("ruzicka", 2)
        shard.bulk_load(members[:5])
        # Sneak a write past the fan-in path.
        shard.replicas[0].node.add(members[30])
        with pytest.raises(ReplicaDivergenceError, match="outside the fan-in"):
            shard.check_divergence()

    def test_round_robin_spreads_reads(self):
        members = corpus()
        shard = ReplicatedShard("ruzicka", 2)
        shard.bulk_load(members[:10])
        request = probe_request(members)
        for _ in range(6):
            shard.query(request)
        served = [replica.reads_served for replica in shard.replicas]
        assert served == [3, 3]

    def test_validation(self):
        with pytest.raises(ResilienceError):
            ReplicatedShard(replication_factor=0)
        with pytest.raises(ResilienceError, match="must be an int"):
            ReplicatedShard(replication_factor=1.5)
        with pytest.raises(ResilienceError):
            ReplicatedShard(replication_factor=2, fault_policies=[None])


# ---------------------------------------------------------------------------
# ReplicatedSimilarityService
# ---------------------------------------------------------------------------

class TestReplicatedService:
    """The fleet against one unsharded index, at ``replication_factor``
    (the subclasses below rerun every test at the other factors)."""

    replication_factor = 2

    def make_pair(self, members, *, num_shards=3, **kwargs):
        fleet = ReplicatedSimilarityService(
            "ruzicka", num_shards,
            replication_factor=self.replication_factor, **kwargs)
        oracle = SimilarityIndex("ruzicka")
        fleet.bulk_load(members)
        oracle.bulk_load(members)
        return fleet, oracle

    def assert_parity(self, fleet, oracle, members):
        requests = [probe_request(members, "threshold"),
                    probe_request(members, "topk"),
                    QueryRequest.threshold(members[7].with_id("p2"), 0.5),
                    QueryRequest.topk(members[9].with_id("p3"), 3)]
        expected = [oracle.query(request) for request in requests]
        assert [fleet.query(request) for request in requests] == expected
        assert fleet.batch(requests) == expected

    def test_parity_healthy_and_after_killing_one_replica_per_shard(
            self, tmp_path):
        members = corpus(60)
        fleet, oracle = self.make_pair(members)
        factor = self.replication_factor
        assert len(fleet) == len(oracle) == len(members)
        self.assert_parity(fleet, oracle, members)
        fleet.persist(tmp_path)
        for shard in range(fleet.num_shards):
            fleet.kill_replica(shard, shard % factor)
        if factor == 1:
            # No survivor: every read and write refuses, none lies.
            for call in (lambda: fleet.query(probe_request(members)),
                         lambda: fleet.add(Multiset("extra", {"a": 1})),
                         lambda: fleet.recover_replica(0, 0)):
                with pytest.raises(ReplicaUnavailableError):
                    call()
            for shard in range(fleet.num_shards):
                fleet.recover_replica(shard, 0, source=tmp_path)
        self.assert_parity(fleet, oracle, members)
        # Writes still apply in degraded mode; parity holds after them.
        extra = Multiset("extra", dict(members[0].items()))
        fleet.add(extra)
        oracle.add(extra)
        fleet.remove(members[1].id)
        oracle.remove(members[1].id)
        self.assert_parity(fleet, oracle, members)
        if factor > 1:  # recover everyone (peer copy) and check again
            for shard in range(fleet.num_shards):
                fleet.recover_replica(shard, shard % factor)
            self.assert_parity(fleet, oracle, members)
        assert fleet.neighbours(members[0].id, 0.3) == \
            oracle.neighbours(members[0].id, 0.3)
        assert fleet.get(members[0].id) == members[0]
        assert fleet.get("ghost") is None

    def test_health_check_ejects_crashed_and_readmits_down(self):
        members = corpus()
        policy = FaultPolicy()
        last = self.replication_factor - 1
        crashed = f"shard0/replica{last}"
        fleet = ReplicatedSimilarityService(
            "ruzicka", 2, replication_factor=self.replication_factor,
            fault_policy_factory=lambda shard, replica: (
                policy if (shard, replica) == (0, last) else None))
        fleet.bulk_load(members)
        policy.crash()  # the replica will fail its next probe
        report = fleet.health_check(readmit=False)
        assert crashed in report["ejected"]
        assert crashed in fleet.health_check(readmit=False)["down"]
        report = fleet.health_check()
        if last == 0:  # no peer to copy: stays down until revived
            assert crashed in report["down"]
            return
        assert crashed in report["readmitted"]
        assert len(fleet.health_check()["healthy"]) == \
            2 * self.replication_factor

    def test_persist_recover_interchangeable_with_unreplicated(self, tmp_path):
        members = corpus()
        fleet, oracle = self.make_pair(members, num_shards=2)
        fleet.persist(tmp_path)
        # The factor is not part of the format: any factor recovers it.
        for factor in RFS:
            recovered = ReplicatedSimilarityService.recover(
                tmp_path, replication_factor=factor)
            assert recovered.replication_factor == factor
            self.assert_parity(recovered, oracle, members)

    def test_stats_and_snapshot_shape(self):
        members = corpus()
        fleet, _ = self.make_pair(members, num_shards=2)
        fleet.query(probe_request(members))
        factor, stats = self.replication_factor, fleet.stats()
        assert stats["replication_factor"] == factor
        assert stats["resilience/healthy_replicas"] == 2 * factor
        assert stats["indexed_multisets"] == len(members)
        fleet.kill_replica(0, 0)
        health = fleet.snapshot()["replica_health"]
        assert (health["shard0"]["healthy"],
                health["shard1"]["healthy"]) == (factor - 1, factor)
        assert set(fleet.per_node_stats()) == {
            f"shard{shard}/replica{replica}" for shard in range(2)
            for replica in range(factor)}
        assert fleet.stats()["resilience/ejections"] == 1
        assert "ReplicatedSimilarityService" in repr(fleet)

    def test_stats_totals_equal_the_per_replica_sum(self):
        # Regression: totals read one replica per shard, losing the rest.
        members = corpus()
        fleet, _ = self.make_pair(members, num_shards=2)
        for index in range(50):
            fleet.query(QueryRequest.threshold(
                members[index % 5].with_id("q"), 0.3))
        totals, per_node = fleet.stats(), fleet.per_node_stats()
        for stat in ("cache/hits", "cache/misses", "cache/evictions",
                     "cache/invalidations", "serving/threshold_queries",
                     "serving/postings_scanned"):
            assert totals[stat] == sum(node[stat]
                                       for node in per_node.values()), stat
        assert totals["cache/hits"] + totals["cache/misses"] == 100
        assert totals["cache/hit_rate"] == totals["cache/hits"] / 100
        assert totals["indexed_multisets"] == len(members)

    def test_invalid_shard_index_and_neighbours_of_unknown(self):
        members = corpus()
        fleet, _ = self.make_pair(members)
        with pytest.raises(ResilienceError):
            fleet.kill_replica(99, 0)
        with pytest.raises(ServingError):
            fleet.neighbours("ghost", 0.5)


class TestReplicatedServiceRF1(TestReplicatedService):
    replication_factor = 1


class TestReplicatedServiceRF3(TestReplicatedService):
    replication_factor = 3


# ---------------------------------------------------------------------------
# Chaos: Hypothesis state machine against the unsharded-index oracle
# ---------------------------------------------------------------------------

CHAOS_IDS = [f"c{index}" for index in range(12)]
CHAOS_CONTENTS = st.dictionaries(
    st.sampled_from([f"e{index}" for index in range(10)]),
    st.integers(min_value=1, max_value=4), min_size=1, max_size=4)
CHAOS_SHARD = st.integers(min_value=0, max_value=1)
CHAOS_REPLICA = st.integers(min_value=0, max_value=max(RFS) - 1)


class ReplicatedChaosMachine(RuleBasedStateMachine):
    """Fleet answers stay bit-exact under interleaved faults, at any RF.

    The fleet (2 shards x a drawn replication factor of 1-3, with a fault
    policy injecting latency on the last replica of each shard) tracks one
    unsharded :class:`SimilarityIndex` through upserts, deletes, threshold
    and top-k queries, replica kills and recoveries.  Kills respect the
    promise's precondition — at least one healthy replica per shard — and
    under it every answer must equal the oracle's bit-for-bit, with no
    error ever surfacing to the caller.  Losing a *whole* shard (the only
    fault a factor-1 fleet can suffer) is its own rule: the shard must
    refuse until it is revived from storage, and be exact again after.
    """

    def __init__(self):
        super().__init__()
        self.fleet = None
        self.oracle = None
        self.model: dict[str, Multiset] = {}
        self.counted: dict[str, float] = {}

    @initialize(seed=st.integers(min_value=0, max_value=2 ** 16),
                replication_factor=st.sampled_from(RFS))
    def build(self, seed, replication_factor):
        # A little injected latency on one replica per shard keeps the
        # fault seam engaged without ever breaking exactness.
        self.fleet = ReplicatedSimilarityService(
            "ruzicka", 2, replication_factor=replication_factor,
            fault_policy_factory=lambda shard, replica: (
                FaultPolicy(seed=seed + shard, latency_seconds=0.0005)
                if replica == replication_factor - 1 else None))
        self.oracle = SimilarityIndex("ruzicka")
        self.model = {}

    def is_healthy(self, shard, replica) -> bool | None:
        """From the health document; ``None`` when there is no such replica."""
        state = self.fleet.replica_health()[f"shard{shard}"]["replicas"].get(
            f"shard{shard}/replica{replica}")
        return None if state is None else state["healthy"]

    # -- writes ---------------------------------------------------------------

    @rule(data=st.data(), contents=CHAOS_CONTENTS)
    def upsert(self, data, contents):
        target = data.draw(st.sampled_from(CHAOS_IDS), label="upsert target")
        member = Multiset(target, contents)
        replace = target in self.model
        self.fleet.add(member, replace=replace)
        self.oracle.add(member, replace=replace)
        self.model[target] = member

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        target = data.draw(st.sampled_from(sorted(self.model)),
                           label="delete target")
        self.fleet.remove(target)
        self.oracle.remove(target)
        del self.model[target]

    # -- faults ---------------------------------------------------------------

    @rule(shard=CHAOS_SHARD, replica=CHAOS_REPLICA)
    def kill_a_replica(self, shard, replica):
        if self.is_healthy(shard, replica) \
                and self.fleet.shards[shard].num_healthy() >= 2:
            self.fleet.kill_replica(shard, replica)

    @rule(shard=CHAOS_SHARD, replica=CHAOS_REPLICA)
    def recover_a_replica(self, shard, replica):
        if self.is_healthy(shard, replica) is False:
            self.fleet.recover_replica(shard, replica)

    @rule(shard=CHAOS_SHARD)
    def lose_a_whole_shard_then_revive_it_from_storage(self, shard):
        request = QueryRequest.topk(Multiset("q", {"e0": 1}), 3)
        with tempfile.TemporaryDirectory() as directory:
            self.fleet.persist(directory)
            for replica in range(self.fleet.replication_factor):
                self.fleet.kill_replica(shard, replica)
            # Nobody left to answer for the shard: refuse, never guess.
            with pytest.raises(ReplicaUnavailableError):
                self.fleet.query(request)
            self.fleet.recover_replica(shard, 0, source=directory)
        assert self.fleet.query(request) == self.oracle.query(request)

    # -- reads ----------------------------------------------------------------

    @rule(threshold=st.sampled_from([0.2, 0.5, 0.8]),
          contents=CHAOS_CONTENTS)
    def query_threshold(self, threshold, contents):
        request = QueryRequest.threshold(Multiset("q", contents), threshold)
        assert self.fleet.query(request) == self.oracle.query(request)

    @rule(k=st.integers(min_value=1, max_value=6),
          contents=CHAOS_CONTENTS)
    def query_topk(self, k, contents):
        request = QueryRequest.topk(Multiset("q", contents), k)
        assert self.fleet.query(request) == self.oracle.query(request)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), k=st.integers(min_value=1, max_value=4))
    def query_batch(self, data, k):
        member = self.model[data.draw(st.sampled_from(sorted(self.model)),
                                      label="batch anchor")]
        requests = [QueryRequest.topk(member.with_id("q"), k),
                    QueryRequest.threshold(member.with_id("q"), 0.4)]
        assert self.fleet.batch(requests) == \
            [self.oracle.query(request) for request in requests]

    # -- invariants -----------------------------------------------------------

    @invariant()
    def membership_and_health_contract(self):
        if self.fleet is None:
            return
        assert len(self.fleet) == len(self.model)
        for shard in self.fleet.shards:
            assert shard.num_healthy() >= 1
            shard.check_divergence()

    @invariant()
    def fleet_counters_never_go_backwards(self):
        # Regression: a kill swapped in a blank node and the fleet totals
        # lost what the old one had counted.
        if self.fleet is None:
            return
        totals = self.fleet.stats()
        for name, before in self.counted.items():
            assert totals[name] >= before, (name, before, totals[name])
        self.counted = {name: value for name, value in totals.items()
                        if is_counter(name)}


ReplicatedChaosMachine.TestCase.settings = hyp_settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.filter_too_much])
TestReplicatedChaos = ReplicatedChaosMachine.TestCase


# ---------------------------------------------------------------------------
# Error table additions
# ---------------------------------------------------------------------------

class TestErrorTable:
    def test_resilience_errors_have_stable_codes(self):
        assert classify(ReplicaUnavailableError("x")) == \
            ("replica_unavailable", 503)
        assert classify(CircuitOpenError("x")) == ("circuit_open", 503)
        assert classify(DeadlineExceededError("x")) == \
            ("deadline_exceeded", 504)
        assert classify(ReplicaDivergenceError("x")) == \
            ("replica_divergence", 500)
        assert classify(ResilienceError("x")) == ("resilience_error", 500)
        assert classify(InjectedFaultError("x")) == ("resilience_error", 500)

    def test_retry_after_surfaces_in_bodies(self):
        status, body = error_body(ReplicaUnavailableError("down", 2.5))
        assert status == 503
        assert body["error"]["retry_after_seconds"] == 2.5
        status, body = error_body(DeadlineExceededError("late", 1.0, 0.75))
        assert status == 504
        assert body["error"]["retry_after_seconds"] == 0.75
        status, body = error_body(ReplicaDivergenceError("diverged"))
        assert "retry_after_seconds" not in body["error"]


# ---------------------------------------------------------------------------
# Wire hardening: client retries, timeouts, breaker, reconnect
# ---------------------------------------------------------------------------

def make_app(members=None, *, replication_factor=1, **config_kwargs):
    service = ReplicatedSimilarityService(
        "ruzicka", 2, replication_factor=replication_factor)
    if members:
        service.bulk_load(members)
    config = ServerConfig(**config_kwargs) if config_kwargs else None
    return SimilarityServerApp(service, config=config)


FAST_RETRIES = RetryPolicy(max_attempts=3, base_backoff_seconds=0.01,
                           max_backoff_seconds=0.05, jitter=0.0, seed=1)


class TestClientHardening:
    def test_idempotent_query_retries_transient_503_then_succeeds(self):
        members = corpus()
        app = make_app(members)
        original = app._execute_queries
        failures = iter([True, False])

        def flaky(requests):
            if next(failures, False):
                raise ReplicaUnavailableError("transient", 0.01)
            return original(requests)

        app._execute_queries = flaky
        request = probe_request(members)
        with InProcessServer(app) as server:
            client = SimilarityClient(server.host, server.port,
                                      retry_policy=FAST_RETRIES)
            answer = client.query(request)
        assert client.retries == 1
        assert answer == app.service.query(request)

    def test_write_does_not_retry_after_the_request_was_sent(self):
        members = corpus()
        app = make_app(members)

        def always_down(writes):
            raise ReplicaUnavailableError("shard down", 0.01)

        app._execute_direct_writes = always_down
        with InProcessServer(app) as server:
            client = SimilarityClient(server.host, server.port,
                                      retry_policy=FAST_RETRIES)
            with pytest.raises(RemoteServerError) as caught:
                client.upsert(Multiset("new", {"a": 1}))
        assert caught.value.code == "replica_unavailable"
        assert caught.value.status == 503
        assert client.retries == 0

    def test_writes_retry_when_the_connection_never_opened(self):
        # Nothing listens on this socket: every attempt fails at connect,
        # which is provably-unsent and therefore retryable even for writes.
        client = SimilarityClient("127.0.0.1", 1, connect_timeout=0.25,
                                  retry_policy=FAST_RETRIES,
                                  breaker_failure_threshold=100)
        with pytest.raises(ClientTransportError) as caught:
            client.upsert(Multiset("new", {"a": 1}))
        assert not caught.value.sent
        assert client.retries == FAST_RETRIES.max_attempts - 1

    def test_circuit_breaker_opens_and_fails_locally(self):
        client = SimilarityClient(
            "127.0.0.1", 1, connect_timeout=0.25,
            retry_policy=RetryPolicy(max_attempts=1),
            breaker_failure_threshold=2,
            breaker_reset_timeout_seconds=60.0)
        for _ in range(2):
            with pytest.raises(ClientTransportError):
                client.health()
        with pytest.raises(CircuitOpenError) as caught:
            client.health()
        assert caught.value.retry_after_seconds > 0
        stats = client.breaker_stats()["/health"]
        assert stats["state"] == OPEN
        assert stats["calls_refused"] == 1
        # Breakers are per endpoint: /stats is still closed (and fails on
        # transport, not on the breaker).
        with pytest.raises(ClientTransportError):
            client.stats()

    def test_client_deadline_bounds_the_whole_logical_request(self):
        client = SimilarityClient(
            "127.0.0.1", 1, connect_timeout=0.25,
            retry_policy=RetryPolicy(max_attempts=100,
                                     base_backoff_seconds=0.2, jitter=0.0,
                                     deadline_seconds=0.5),
            breaker_failure_threshold=1000)
        start = time.monotonic()
        with pytest.raises((DeadlineExceededError, ClientTransportError)):
            client.health()
        assert time.monotonic() - start < 5.0

    def test_dropped_keep_alive_is_resent_once(self):
        members = corpus()
        app = make_app(members)
        with InProcessServer(app) as server:
            client = SimilarityClient(server.host, server.port,
                                      retry_policy=FAST_RETRIES)
            first = client.health()
            assert first["status"] == "ok"
            # Simulate the server dropping the idle kept-alive socket.
            client._connection.sock.close()
            assert client.health() == first
        assert client.reconnects == 1
        assert client.retries == 0

    def test_dropped_keep_alive_write_is_not_resent_after_sending(self):
        members = corpus()
        app = make_app(members)
        with InProcessServer(app) as server:
            client = SimilarityClient(server.host, server.port,
                                      retry_policy=FAST_RETRIES)
            assert client.health()["status"] == "ok"
            # The reused socket dies *after* the request went out: the
            # server may already have applied the write, so transparently
            # resending it could double-apply.  The client must surface
            # the ambiguity (sent=True) instead.
            connection = client._connection

            def dropped_mid_flight():
                raise http.client.RemoteDisconnected(
                    "server closed the connection mid-response")

            connection.getresponse = dropped_mid_flight
            with pytest.raises(ClientTransportError) as caught:
                client.upsert(Multiset("new", {"a": 1}))
        assert caught.value.sent
        assert client.reconnects == 0
        assert client.retries == 0

    def test_client_fault_policy_seam(self):
        client = SimilarityClient(
            "127.0.0.1", 1, retry_policy=RetryPolicy(max_attempts=1),
            fault_policy=FaultPolicy(error_probability=1.0))
        with pytest.raises(InjectedFaultError):
            client.health()


# ---------------------------------------------------------------------------
# Server hardening: timeouts, brownout, admin endpoints, drain
# ---------------------------------------------------------------------------

class TestServerHardening:
    def test_server_config_validation(self):
        with pytest.raises(Exception, match="request_timeout_seconds"):
            ServerConfig(request_timeout_seconds=0)
        with pytest.raises(Exception, match="health_check_interval_seconds"):
            ServerConfig(health_check_interval_seconds=-1)
        with pytest.raises(Exception, match="brownout_queue_depth"):
            ServerConfig(brownout_queue_depth=0)
        with pytest.raises(Exception, match="brownout_topk_cap"):
            ServerConfig(brownout_topk_cap=0)

    def test_slow_request_fails_with_504_and_retry_after(self):
        members = corpus()
        app = make_app(members, request_timeout_seconds=0.1,
                       query_max_batch=1, retry_after_seconds=0.05)
        release = threading.Event()
        original = app._execute_queries

        def slow(requests):
            release.wait(10)
            return original(requests)

        app._execute_queries = slow
        request = probe_request(members)
        try:
            with InProcessServer(app, drain_on_close=False) as server:
                connection = http.client.HTTPConnection(
                    server.host, server.port, timeout=10)
                import json as json_module

                connection.request(
                    "POST", "/query",
                    body=json_module.dumps(request.to_json_dict()).encode(),
                    headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                body = json_module.loads(response.read())
                retry_after = response.getheader("Retry-After")
                connection.close()
                assert response.status == 504
                assert body["error"]["code"] == "deadline_exceeded"
                assert body["error"]["retry_after_seconds"] == 0.05
                assert float(retry_after) == pytest.approx(0.05)
                assert app.metrics["deadline_failures"] == 1
                release.set()
        finally:
            release.set()

    def test_brownout_degrades_queued_topk_requests(self):
        members = corpus()
        app = make_app(members, query_queue_capacity=32, query_max_batch=1,
                       brownout_queue_depth=1, brownout_topk_cap=2,
                       brownout_threshold_floor=0.6)
        release = threading.Event()
        original = app._execute_queries

        def blocked(requests):
            release.wait(20)
            return original(requests)

        app._execute_queries = blocked
        request = QueryRequest.topk(members[0].with_id("probe"), 10)
        answers = []
        try:
            with InProcessServer(app) as server:
                def ask():
                    client = SimilarityClient(server.host, server.port)
                    answers.append(client.query(request))

                first = threading.Thread(target=ask)
                first.start()
                # Wait until the first query is executing (blocked).
                deadline = time.monotonic() + 10
                while app._query_queue.stats()["admitted"] < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                # Queue two more: one fills the queue (depth 1), the next
                # is admitted during brownout and degrades.
                rest = [threading.Thread(target=ask) for _ in range(3)]
                for worker in rest:
                    worker.start()
                    time.sleep(0.1)
                release.set()
                for worker in [first, *rest]:
                    worker.join(timeout=20)
        finally:
            release.set()
        assert len(answers) == 4
        sizes = sorted(len(answer) for answer in answers)
        assert sizes[0] <= 2, sizes  # somebody got the degraded answer
        assert sizes[-1] == 10, sizes  # and somebody got the full one
        assert app.metrics["degraded_served"] >= 1
        # The degraded answer is a truncation of the full one.
        full = max(answers, key=len)
        for answer in answers:
            assert list(answer)[:len(answer)] == list(full)[:len(answer)]

    def test_admin_endpoints_drive_kill_revive_and_health(self):
        members = corpus()
        app = make_app(members, replication_factor=2)
        request = probe_request(members)
        with InProcessServer(app) as server:
            client = SimilarityClient(server.host, server.port,
                                      retry_policy=FAST_RETRIES)
            before = client.query(request)
            replicas = client.replicas()
            assert replicas["replication_factor"] == 2
            assert all(entry["healthy"] == 2
                       for entry in replicas["replicas"].values())
            ack = client.kill_replica(0, 1)
            assert ack["killed"]["shard"] == 0
            assert client.replicas()["replicas"]["shard0"]["healthy"] == 1
            assert client.query(request) == before
            client.revive_replica(0, 1)
            assert client.replicas()["replicas"]["shard0"]["healthy"] == 2
            assert client.query(request) == before
            with pytest.raises(RemoteServerError) as caught:
                client.kill_replica(99, 0)
            assert caught.value.code == "resilience_error"
            with pytest.raises(RemoteServerError) as caught:
                client._request("POST", "/admin/kill",
                                {"shard": "zero", "replica": 0},
                                idempotent=False)
            assert caught.value.code == "server_error"

    def test_admin_endpoints_at_replication_factor_one(self, tmp_path):
        members = corpus()
        app = make_app(members)
        request = probe_request(members)
        directory = str(tmp_path / "snap")
        with InProcessServer(app) as server:
            client = SimilarityClient(server.host, server.port,
                                      retry_policy=RetryPolicy(max_attempts=1))
            before = client.query(request)
            replicas = client.replicas()
            assert replicas["replication_factor"] == 1
            assert all(entry["healthy"] == 1
                       for entry in replicas["replicas"].values())
            client.persist(directory)
            client.kill_replica(0, 0)
            # Nobody left, no peer to copy: 503, never a partial answer.
            for call in (lambda: client.query(request),
                         lambda: client.revive_replica(0, 0)):
                with pytest.raises(RemoteServerError) as caught:
                    call()
                assert (caught.value.code, caught.value.status) == \
                    ("replica_unavailable", 503)
            assert client.stats()["replica_health"]["shard0"]["healthy"] == 0
            client.revive_replica(0, 0, source=directory)
            assert client.replicas()["replicas"]["shard0"]["healthy"] == 1
            assert client.query(request) == before

    def test_health_loop_readmits_a_killed_replica(self):
        members = corpus()
        service = ReplicatedSimilarityService("ruzicka", 2,
                                              replication_factor=2)
        service.bulk_load(members)
        app = SimilarityServerApp(
            service, config=ServerConfig(health_check_interval_seconds=0.05))
        request = probe_request(members)
        with InProcessServer(app) as server:
            client = SimilarityClient(server.host, server.port,
                                      retry_policy=FAST_RETRIES)
            before = client.query(request)
            client.kill_replica(1, 0)
            deadline = time.monotonic() + 10
            while True:
                replicas = client.replicas()
                if all(entry["healthy"] == 2
                       for entry in replicas["replicas"].values()):
                    break
                assert time.monotonic() < deadline, \
                    f"health loop never readmitted: {replicas}"
                time.sleep(0.05)
            assert client.query(request) == before
            assert replicas["last_health_report"] is not None

    def test_replicated_persist_recover_over_the_wire(self, tmp_path):
        members = corpus()
        app = make_app(members, replication_factor=2)
        request = probe_request(members)
        directory = str(tmp_path / "snap")
        with InProcessServer(app) as server:
            client = SimilarityClient(server.host, server.port,
                                      retry_policy=FAST_RETRIES)
            before = client.query(request)
            client.persist(directory)
            recovered = client.recover(directory)
            assert recovered["recovered"] is True
            # The recovered fleet is still replicated.
            assert app.service.replication_factor == 2
            assert client.query(request) == before
            assert client.replicas()["replication_factor"] == 2

    def test_recover_preserves_fleet_tuning(self, tmp_path):
        members = corpus()
        def factory(shard, replica):
            return FaultPolicy(seed=shard + replica)

        service = ReplicatedSimilarityService(
            "ruzicka", 2, replication_factor=3, cache_capacity=7,
            fault_policy_factory=factory)
        service.bulk_load(members)
        app = SimilarityServerApp(service)
        directory = str(tmp_path / "snap")
        with InProcessServer(app) as server:
            client = SimilarityClient(server.host, server.port,
                                      retry_policy=FAST_RETRIES)
            client.persist(directory)
            client.recover(directory)
        # /admin/recover must not silently reset the running fleet's
        # tuning to the constructor defaults.
        assert app.service.replication_factor == 3
        assert app.service.cache_capacity == 7
        assert app.service.fault_policy_factory is factory
        assert app.service is not service

    def test_orphaned_deadline_task_failure_is_logged(self, caplog):
        app = make_app(corpus(), request_timeout_seconds=0.05)

        async def scenario():
            async def late_failure():
                await asyncio.sleep(0.2)
                raise QueueFullError("failed after the caller gave up", 0.1)

            with pytest.raises(DeadlineExceededError):
                await app._with_deadline(late_failure(), "probe")
            # The orphan keeps running past the deadline; its failure must
            # be consumed and logged, never "exception was never retrieved".
            await asyncio.sleep(0.3)

        with caplog.at_level(logging.WARNING, logger="repro.server.app"):
            asyncio.run(scenario())
        assert "deadline-orphaned" in caplog.text
        assert "failed after the caller gave up" in caplog.text

    def test_graceful_drain_answers_every_admitted_request_under_latency(self):
        """SIGTERM-equivalent close() during an injected-latency batch.

        At every replication factor, every request admitted before the
        drain begins must be answered — none dropped, none errored — though
        each replica call pays injected latency and (where a peer survives)
        one replica per shard is killed mid-drain.
        """
        members = corpus()
        oracle = SimilarityIndex("ruzicka")
        oracle.bulk_load(members)
        requests = [QueryRequest.topk(member.with_id(f"q{index}"), 4)
                    for index, member in enumerate(members[:10])]
        for factor in RFS:
            service = ReplicatedSimilarityService(
                "ruzicka", 2, replication_factor=factor,
                fault_policy_factory=lambda shard, replica: FaultPolicy(
                    seed=shard * 31 + replica, latency_seconds=0.02))
            service.bulk_load(members)
            app = SimilarityServerApp(
                service, config=ServerConfig(query_max_batch=2))
            answers: dict[int, object] = {}
            errors: list[BaseException] = []
            server = InProcessServer(app)
            server.start()
            try:
                def ask(index):
                    try:
                        client = SimilarityClient(server.host, server.port,
                                                  retry_policy=FAST_RETRIES)
                        answers[index] = client.query(requests[index])
                    except BaseException as error:  # noqa: BLE001 — recorded
                        errors.append(error)

                workers = [threading.Thread(target=ask, args=(index,))
                           for index in range(len(requests))]
                for worker in workers:
                    worker.start()
                # Let the batch get in flight, then kill a replica per
                # shard mid-stream and drain.
                time.sleep(0.05)
                if factor > 1:
                    service.kill_replica(0, 1)
                    service.kill_replica(1, 0)
                for worker in workers:
                    worker.join(timeout=30)
            finally:
                server.close()  # drains: joins the loop thread
            assert not errors, (factor, errors)
            assert answers == {index: oracle.query(request)
                               for index, request in enumerate(requests)}

    def test_classify_queue_full_unchanged(self):
        # The 429 path keeps its code and hint shape after the table grew.
        assert classify(QueueFullError("full")) == ("queue_full", 429)
