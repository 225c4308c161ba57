"""The loop-side cached read: exact, accounted, and never taken when it must not be.

A single ``POST /query`` is answered on the event loop — no queue, no
executor hop — when the fleet is quiescent and every shard has the answer
cached (``SimilarityServerApp._read_on_loop`` over
``ReplicatedSimilarityService.cached``).  These tests hold that path to the
contract of the queued one: the same answers, the same cache accounting, and
a fall-through to the queue whenever a lock is held, a request is queued, a
fault seam is in front of a replica or a write has moved the index.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.core.multiset import Multiset
from repro.engine import JoinSpec
from repro.resilience.faults import FaultPolicy
from repro.serving.api import QueryRequest
from repro.serving.index import SimilarityIndex
from repro.serving.replica import RENDEZVOUS, ROUND_ROBIN
from repro.serving.service import ReplicatedSimilarityService
from repro.server import (
    InProcessServer,
    ServerConfig,
    SimilarityClient,
    SimilarityServerApp,
)
from repro.streaming.view import JoinView
from tests.conftest import make_random_multisets

NUM_SHARDS = 3


def corpus():
    return make_random_multisets(count=24, alphabet_size=12, max_elements=8,
                                 seed=5)


def oracle_over(members) -> SimilarityIndex:
    oracle = SimilarityIndex("ruzicka")
    oracle.bulk_load(members)
    return oracle


def stream(members) -> list[QueryRequest]:
    """A request stream with repeats, both query kinds, one non-member."""
    requests = []
    for position, member in enumerate(members[:9]):
        probe = member.with_id(f"probe{position}")
        requests.append(QueryRequest.threshold(probe, 0.3)
                        if position % 3 else QueryRequest.topk(probe, 4))
    requests.append(QueryRequest.threshold(Multiset("odd", {"zz": 3}), 0.5))
    return requests + requests[2:5]


def fleet(replication_factor: int, members, **options):
    service = ReplicatedSimilarityService(
        "ruzicka", NUM_SHARDS, replication_factor=replication_factor,
        **options)
    service.bulk_load(members)
    return service


def admitted(app: SimilarityServerApp) -> int:
    return app._query_queue.admitted


def accounting(service) -> tuple[int, int, int]:
    totals = service.stats()
    reads = sum(replica.reads_served
                for shard in service.shards for replica in shard.replicas)
    return totals["cache/hits"], totals["cache/misses"], reads


def wait_until(condition, what: str) -> None:
    deadline = time.monotonic() + 10
    while not condition():
        assert time.monotonic() < deadline, f"never happened: {what}"
        time.sleep(0.001)


# ---------------------------------------------------------------------------
# The fleet's half: ReplicatedSimilarityService.cached
# ---------------------------------------------------------------------------

class TestCachedRead:
    @pytest.mark.parametrize("replication_factor", [1, 2, 3])
    @pytest.mark.parametrize("read_strategy", [ROUND_ROBIN, RENDEZVOUS])
    def test_cached_is_query_or_nothing(self, replication_factor,
                                        read_strategy):
        members = corpus()
        service = fleet(replication_factor, members,
                        read_strategy=read_strategy)
        oracle = oracle_over(members)
        fast = 0
        for _ in range(4):
            for request in stream(members):
                before = accounting(service)
                answer = service.cached(request)
                if answer is None:
                    # Nothing was counted and no turn was used: the query
                    # that follows finds the fleet as if nobody had asked.
                    assert accounting(service) == before
                    answer = service.query(request)
                    hits, misses, reads = accounting(service)
                    assert misses > before[1]
                else:
                    fast += 1
                    hits, misses, reads = accounting(service)
                    assert (hits, misses) == (before[0] + NUM_SHARDS,
                                              before[1])
                assert answer == oracle.query(request)
                assert hits + misses == before[0] + before[1] + NUM_SHARDS
                assert reads == before[2] + NUM_SHARDS
        assert fast >= len(stream(members))  # the last pass at the least

    def test_one_cold_shard_declines_for_the_whole_fleet(self):
        members = corpus()
        service = fleet(1, members)
        request = stream(members)[1]
        service.query(request)
        assert service.cached(request) is not None
        service.shards[1].replicas[0].node.cache.invalidate()
        before = accounting(service)
        assert service.cached(request) is None
        assert accounting(service) == before

    def test_a_write_voids_what_was_cached(self):
        members = corpus()
        service = fleet(2, members)
        request = QueryRequest.threshold(members[0].with_id("probe"), 0.3)
        for _ in range(2):
            service.query(request)
        assert service.cached(request) is not None
        twin = Multiset("twin", dict(members[0].items()))
        service.add(twin)
        assert service.cached(request) is None
        assert "twin" in service.query(request).ids()

    def test_a_hit_refreshes_lru_recency(self):
        members = corpus()
        service = fleet(1, members, cache_capacity=2)
        first, second, third = stream(members)[:3]
        service.query(first)
        service.query(second)
        assert service.cached(first) is not None  # first is now the newest
        service.query(third)                      # evicts second
        assert service.cached(first) is not None
        assert service.cached(second) is None

    def test_declines_behind_a_fault_policy_a_down_or_a_busy_replica(self):
        members = corpus()
        request = stream(members)[1]
        policy = FaultPolicy(latency_seconds=0.0)
        seamed = fleet(1, members, fault_policy_factory=lambda shard, replica:
                       policy if shard == 1 else None)
        seamed.query(request)
        calls = policy.calls
        assert seamed.cached(request) is None and policy.calls == calls

        plain = fleet(1, members)
        plain.query(request)
        busy = plain.shards[2].replicas[0]
        with busy.lock:  # another thread is inside the node
            started = time.monotonic()
            assert plain.cached(request) is None
            assert time.monotonic() - started < 1.0
        assert plain.cached(request) is not None
        assert not any(replica.lock.locked() for shard in plain.shards
                       for replica in shard.replicas)
        plain.kill_replica(0, 0, lose_state=False)
        assert plain.cached(request) is None


# ---------------------------------------------------------------------------
# Over the wire: exact and accounted whichever path answered
# ---------------------------------------------------------------------------

class TestWireAccounting:
    @pytest.mark.parametrize("replication_factor", [1, 2])
    def test_cold_then_hot_stream_is_exact_and_accounted(
            self, replication_factor):
        members = corpus()
        service = fleet(replication_factor, members)
        oracle = oracle_over(members)
        app = SimilarityServerApp(service)
        requests = stream(members)
        on_loop = []
        with InProcessServer(app) as server, \
                SimilarityClient(server.host, server.port) as client:
            for _ in range(3):  # cold, then warm on one replica, then hot
                taken = 0
                for request in requests:
                    before = accounting(service)
                    queued = admitted(app)
                    assert client.query(request) == oracle.query(request)
                    hits, misses, reads = accounting(service)
                    assert hits + misses \
                        == before[0] + before[1] + NUM_SHARDS
                    assert reads == before[2] + NUM_SHARDS
                    if admitted(app) == queued:  # answered on the loop
                        assert hits == before[0] + NUM_SHARDS
                        taken += 1
                    else:  # queued, and only because something was cold
                        assert admitted(app) == queued + 1
                        assert misses > before[1]
                on_loop.append(taken)
            stats = client.stats()
        assert on_loop[0] < len(requests) and on_loop[2] == len(requests)
        assert stats["server"]["queues"]["queries"]["admitted"] \
            == 3 * len(requests) - sum(on_loop)
        assert stats["totals"]["cache/hits"] + stats["totals"]["cache/misses"] \
            == 3 * len(requests) * NUM_SHARDS

    def test_a_write_acknowledged_between_two_queries_is_seen(self):
        members = corpus()
        service = fleet(1, members)
        app = SimilarityServerApp(service)
        request = QueryRequest.threshold(members[0].with_id("probe"), 0.3)
        twin = Multiset("twin", dict(members[0].items()))
        with InProcessServer(app) as server, \
                SimilarityClient(server.host, server.port) as client:
            client.query(request)
            queued = admitted(app)
            first = client.query(request)
            assert admitted(app) == queued  # hot: answered on the loop
            client.upsert(twin)
            second = client.query(request)
            assert admitted(app) == queued + 1  # voided: back to the queue
        assert "twin" not in first.ids() and "twin" in second.ids()
        assert second == oracle_over(members + [twin]).query(request)


# ---------------------------------------------------------------------------
# Never taken when it must not be: each request here must be *admitted*
# ---------------------------------------------------------------------------

class RecordingPolicy(FaultPolicy):
    """A latency policy that records which thread paid each call."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.threads: list[int] = []

    def on_call(self, operation: str) -> None:
        self.threads.append(threading.get_ident())
        super().on_call(operation)


class TestNeverOnTheLoop:
    def hot_app(self, **config):
        members = corpus()
        service = fleet(1, members)
        request = QueryRequest.threshold(members[0].with_id("probe"), 0.3)
        service.query(request)
        app = SimilarityServerApp(
            service, config=ServerConfig(**config) if config else None)
        return app, request, oracle_over(members).query(request)

    def test_app_lock_held_by_another_thread(self):
        app, request, expected = self.hot_app()
        answers = []
        with InProcessServer(app) as server, \
                SimilarityClient(server.host, server.port) as client:
            assert client.query(request) == expected
            assert admitted(app) == 0  # hot and quiescent: on the loop
            holding, release = threading.Event(), threading.Event()

            def hold():
                with app.lock:
                    holding.set()
                    release.wait(10)

            holder = threading.Thread(target=hold)
            holder.start()
            assert holding.wait(10)
            asker = threading.Thread(
                target=lambda: answers.append(client.query(request)))
            asker.start()
            try:
                wait_until(lambda: admitted(app) == 1, "query admitted")
                # The loop did not block on the lock: it still answers.
                with SimilarityClient(server.host, server.port) as other:
                    assert other.health()["status"] == "ok"
                assert not answers
            finally:
                release.set()
                holder.join(timeout=10)
                asker.join(timeout=10)
            assert not holder.is_alive() and not asker.is_alive()
        assert answers == [expected]

    def test_a_request_already_queued(self):
        app, request, expected = self.hot_app()
        cold = QueryRequest.topk(corpus()[5].with_id("cold"), 3)

        async def scenario():
            await app.startup()
            try:
                status, _, _ = await app.handle("POST", "/query",
                                                request.to_json_dict())
                assert status == 200 and admitted(app) == 0
                # Both start in this loop iteration, the cold one first: it
                # is in the queue (not yet taken by the worker) when the
                # hot one looks.
                answers = await asyncio.gather(
                    app.handle("POST", "/query", cold.to_json_dict()),
                    app.handle("POST", "/query", request.to_json_dict()))
                return admitted(app), answers
            finally:
                await app.shutdown()

        queued, answers = asyncio.run(scenario())
        assert queued == 2
        assert [status for status, _, _ in answers] == [200, 200]
        assert answers[1][1] == expected.to_json_dict()

    def test_a_fault_policy_never_runs_on_the_loop_thread(self):
        members = corpus()
        policies = []

        def factory(shard, replica):
            policies.append(RecordingPolicy(seed=shard,
                                            latency_seconds=0.002))
            return policies[-1]

        service = fleet(2, members, fault_policy_factory=factory)
        oracle = oracle_over(members)
        app = SimilarityServerApp(service)
        requests = stream(members)[:4]
        with InProcessServer(app) as server, \
                SimilarityClient(server.host, server.port) as client:

            async def identify():
                return threading.get_ident()

            loop_thread = server.run_coroutine(identify())
            for position in range(3 * len(requests)):  # hot by the end
                request = requests[position % len(requests)]
                assert client.query(request) == oracle.query(request)
                assert admitted(app) == position + 1
        paid = [thread for policy in policies for thread in policy.threads]
        assert paid and loop_thread not in paid
        assert sum(policy.injected_latency_calls for policy in policies) \
            == len(paid)

    def test_view_mode_with_a_write_in_flight(self):
        members = corpus()
        view = JoinView(JoinSpec(measure="ruzicka", threshold=0.5,
                                 algorithm="exact"), members)
        service = ReplicatedSimilarityService("ruzicka", NUM_SHARDS,
                                              replication_factor=1)
        app = SimilarityServerApp(service, view=view)
        request = QueryRequest.threshold(members[0].with_id("probe"), 0.3)
        twin = Multiset("twin", dict(members[0].items()))
        writing, release = threading.Event(), threading.Event()
        apply_writes = app._execute_view_writes

        def slow_writes(writes):
            writing.set()  # on the pool, under app.lock
            release.wait(10)
            return apply_writes(writes)

        app._execute_view_writes = slow_writes
        answers = []
        with InProcessServer(app) as server, \
                SimilarityClient(server.host, server.port) as client, \
                SimilarityClient(server.host, server.port) as writer:
            client.query(request)
            queued = admitted(app)
            assert "twin" not in client.query(request).ids()
            assert admitted(app) == queued  # hot: answered on the loop
            write = threading.Thread(target=lambda: writer.upsert(twin))
            write.start()
            assert writing.wait(10)
            asker = threading.Thread(
                target=lambda: answers.append(client.query(request)))
            asker.start()
            try:
                wait_until(lambda: admitted(app) == queued + 1,
                           "query admitted behind the write")
                assert not answers
            finally:
                release.set()
                write.join(timeout=10)
                asker.join(timeout=10)
            assert not write.is_alive() and not asker.is_alive()
        # Queued behind the write batch, so it reflects it.
        assert answers == [oracle_over(members + [twin]).query(request)]
