"""Tests for the network-facing serving tier (repro.server).

Covers the exception-to-wire error table, the coalescing queues, the app
dispatcher, the live HTTP end-to-end path (upsert → query → delete → query,
bit-identical with direct service calls), backpressure (429 + Retry-After
and recovery), graceful shutdown, admin persist/recover and the load
generators.  The raw ``http.client`` cases are deliberate: they prove the
server speaks standard HTTP/1.1 to a client this repo did not write.
"""

from __future__ import annotations

import ast
import asyncio
import http.client
import json
import os
import pathlib
import re
import tempfile
import threading
import time

import pytest

from repro.core.exceptions import (
    InvalidMultisetError,
    QueueFullError,
    ReproError,
    ServerError,
    ServingError,
    StorageError,
    StreamingError,
)
from repro.core.multiset import Multiset
from repro.datasets.workload import (
    RequestWorkloadConfig,
    generate_open_loop_arrivals,
    generate_request_workload,
)
from repro.engine import JoinSpec
from repro.serving.api import QueryRequest, QueryResponse, multiset_to_wire
from repro.serving.index import SimilarityIndex
from repro.serving.service import ReplicatedSimilarityService, shard_for
from repro.server import (
    ERROR_TABLE,
    CoalescingQueue,
    InProcessServer,
    RemoteServerError,
    ServerConfig,
    SimilarityClient,
    SimilarityServerApp,
    classify,
    error_body,
)
from repro.streaming.view import JoinView
from tests.conftest import make_random_multisets, unreplicated_fleet


def corpus(count=16, seed=5):
    return make_random_multisets(count=count, alphabet_size=12,
                                 max_elements=8, seed=seed)


def make_service(num_shards=2, members=None):
    service = unreplicated_fleet("ruzicka", num_shards=num_shards)
    service.bulk_load(corpus() if members is None else members)
    return service


# ---------------------------------------------------------------------------
# The error table (satellite: one table, stable codes, tested per row)
# ---------------------------------------------------------------------------

class TestErrorTable:
    @pytest.mark.parametrize("exception_class,code,status", ERROR_TABLE)
    def test_every_row_maps_its_own_class(self, exception_class, code,
                                          status):
        error = exception_class.__new__(exception_class)
        Exception.__init__(error, "boom")
        assert classify(error) == (code, status)

    def test_most_specific_row_wins(self):
        assert classify(QueueFullError("full")) == ("queue_full", 429)
        assert classify(ServerError("bad")) == ("server_error", 400)
        assert classify(ServingError("conflict")) == ("serving_error", 409)
        assert classify(StreamingError("bad batch")) == ("streaming_error", 409)
        assert classify(StorageError("io")) == ("storage_error", 500)
        assert classify(InvalidMultisetError("neg")) == ("invalid_multiset", 400)

    def test_unlisted_repro_subclass_inherits_parent_row(self):
        class CustomServingError(ServingError):
            pass

        assert classify(CustomServingError("x")) == ("serving_error", 409)

    def test_base_repro_error_is_500(self):
        assert classify(ReproError("generic")) == ("repro_error", 500)

    def test_non_repro_exception_is_internal(self):
        assert classify(ValueError("nope")) == ("internal_error", 500)

    def test_error_body_shape(self):
        status, body = error_body(ServingError("already indexed"))
        assert status == 409
        assert body == {"error": {"code": "serving_error", "status": 409,
                                  "type": "ServingError",
                                  "message": "already indexed"}}

    def test_queue_full_body_carries_the_backoff_hint(self):
        status, body = error_body(
            QueueFullError("full", retry_after_seconds=2.5, queue="queries"))
        assert status == 429
        assert body["error"]["retry_after_seconds"] == 2.5
        assert body["error"]["queue"] == "queries"


# ---------------------------------------------------------------------------
# CoalescingQueue
# ---------------------------------------------------------------------------

def run_async(coroutine):
    return asyncio.run(coroutine)


class TestCoalescingQueue:
    def make_started(self, execute, **kwargs):
        from concurrent.futures import ThreadPoolExecutor

        queue = CoalescingQueue("test", execute, **kwargs)
        executor = ThreadPoolExecutor(max_workers=1)
        queue.start(executor=executor, lock=threading.Lock())
        return queue, executor

    def test_submits_coalesce_into_batches(self):
        async def scenario():
            batches = []

            def execute(items):
                batches.append(list(items))
                return [item * 10 for item in items]

            queue, executor = self.make_started(execute, max_batch=8)
            futures = [queue.submit(i) for i in range(5)]
            results = await asyncio.gather(*futures)
            await queue.close()
            executor.shutdown()
            assert results == [0, 10, 20, 30, 40]
            assert sum(len(batch) for batch in batches) == 5
            assert queue.stats()["executed_items"] == 5
            return batches

        batches = run_async(scenario())
        # The worker drains greedily: fewer batches than items.
        assert len(batches) < 5

    def test_full_queue_rejects_without_blocking(self):
        async def scenario():
            release = threading.Event()

            def execute(items):
                release.wait(10)
                return [f"ran-{item}" for item in items]

            queue, executor = self.make_started(execute, capacity=2,
                                                max_batch=1)
            first = queue.submit("executing")
            # Give the worker the first item, then fill the queue.
            while queue.stats()["depth"] > 0 \
                    or queue.stats()["executed_batches"] > 0:
                await asyncio.sleep(0.001)
            queued = [queue.submit("queued-a"), queue.submit("queued-b")]
            with pytest.raises(QueueFullError) as caught:
                queue.submit("rejected")
            assert caught.value.queue == "test"
            assert caught.value.retry_after_seconds > 0
            assert queue.stats()["rejected"] == 1
            release.set()
            results = await asyncio.gather(first, *queued)
            await queue.close()
            executor.shutdown()
            assert results == ["ran-executing", "ran-queued-a",
                               "ran-queued-b"]

        run_async(scenario())

    def test_execution_failure_fans_out_to_the_batch(self):
        async def scenario():
            def execute(items):
                raise ServingError("shard exploded")

            queue, executor = self.make_started(execute)
            futures = [queue.submit(i) for i in range(3)]
            for future in futures:
                with pytest.raises(ServingError, match="shard exploded"):
                    await future
            await queue.close()
            executor.shutdown()

        run_async(scenario())

    def test_close_without_drain_rejects_queued_items(self):
        async def scenario():
            release = threading.Event()

            def execute(items):
                release.wait(10)
                return [f"ran-{item}" for item in items]

            queue, executor = self.make_started(execute, max_batch=1)
            executing = queue.submit("executing")
            while queue.stats()["depth"] > 0:
                await asyncio.sleep(0.001)
            abandoned = queue.submit("abandoned")
            # Rejection runs before close's first await; the worker is still
            # blocked on "executing", so "abandoned" is deterministically
            # still queued when it happens.
            close_task = asyncio.ensure_future(queue.close(drain=False))
            await asyncio.sleep(0)
            release.set()
            await close_task
            executor.shutdown()
            assert await executing == "ran-executing"
            with pytest.raises(ServerError, match="shut down"):
                await abandoned
            with pytest.raises(QueueFullError):
                queue.submit("after close")

        run_async(scenario())


# ---------------------------------------------------------------------------
# App dispatch (no sockets)
# ---------------------------------------------------------------------------

async def started_app(**kwargs):
    app = SimilarityServerApp(make_service(), **kwargs)
    await app.startup()
    return app


class TestAppDispatch:
    def test_unknown_path_is_404(self):
        async def scenario():
            app = await started_app()
            status, body, _ = await app.handle("GET", "/nope", None)
            await app.shutdown()
            assert status == 404
            assert body["error"]["code"] == "not_found"

        run_async(scenario())

    def test_wrong_method_is_405_with_allow(self):
        async def scenario():
            app = await started_app()
            status, body, headers = await app.handle("DELETE", "/query", {})
            get_status, _, _ = await app.handle("POST", "/health", {})
            await app.shutdown()
            assert (status, headers["Allow"]) == (405, "POST")
            assert body["error"]["code"] == "method_not_allowed"
            assert get_status == 405

        run_async(scenario())

    def test_non_object_body_is_400(self):
        async def scenario():
            app = await started_app()
            status, body, _ = await app.handle("POST", "/query", [1, 2])
            await app.shutdown()
            assert status == 400
            assert body["error"]["code"] == "bad_request"

        run_async(scenario())

    def test_malformed_query_payload_is_400_server_error(self):
        async def scenario():
            app = await started_app()
            status, body, _ = await app.handle("POST", "/query",
                                               {"query": {"id": "q"}})
            await app.shutdown()
            assert status == 400
            assert body["error"]["code"] == "server_error"

        run_async(scenario())

    def test_trailing_slash_routes_too(self):
        async def scenario():
            app = await started_app()
            status, body, _ = await app.handle("GET", "/health/", None)
            await app.shutdown()
            assert status == 200 and body["status"] == "ok"

        run_async(scenario())

    def test_stats_merges_fleet_snapshot_and_queues(self):
        async def scenario():
            app = await started_app()
            status, body, _ = await app.handle("GET", "/stats", None)
            await app.shutdown()
            assert status == 200
            assert body["measure"] == "ruzicka"
            assert set(body["server"]["queues"]) \
                == {"queries", "writes"}
            assert body["server"]["mode"] == "direct"
            assert "cache/hit_rate" in body["totals"]

        run_async(scenario())

    def test_requests_after_shutdown_are_rejected(self):
        async def scenario():
            app = await started_app()
            await app.shutdown()
            request = QueryRequest.topk(Multiset("q", {"e0": 1}), 2)
            status, body, _ = await app.handle("POST", "/query",
                                               request.to_json_dict())
            assert status == 400
            assert "not accepting" in body["error"]["message"]

        run_async(scenario())

    def test_invalid_config_rejected(self):
        with pytest.raises(ServerError, match="query_queue_capacity"):
            ServerConfig(query_queue_capacity=0)
        with pytest.raises(ServerError, match="retry_after_seconds"):
            ServerConfig(retry_after_seconds=0.0)


# ---------------------------------------------------------------------------
# Live HTTP end-to-end (satellite: wire == direct, bit-identical)
# ---------------------------------------------------------------------------

class TestHttpEndToEnd:
    def test_upsert_query_delete_query_matches_direct_calls(self):
        members = corpus()
        service = make_service(members=members)
        # The twin executes the same operations directly, in process.
        twin = make_service(members=members)
        app = SimilarityServerApp(service)
        with InProcessServer(app) as server:
            with SimilarityClient(server.host, server.port) as client:
                newcomer = Multiset("fresh", {"e0": 3, "e1": 1, "zz": 2})
                probe = QueryRequest.threshold(
                    newcomer.with_id("probe"), 0.2)

                ack = client.upsert(newcomer)
                twin.add(newcomer)
                assert ack == {"indexed": "fresh", "replaced": False}

                assert client.query(probe) == twin.query(probe)
                assert "fresh" in client.query(probe).ids()

                assert client.delete("fresh") == {"deleted": "fresh"}
                twin.remove("fresh")
                assert client.query(probe) == twin.query(probe)
                assert "fresh" not in client.query(probe).ids()

                ranking = QueryRequest.topk(members[0].with_id("probe"), 5)
                assert client.query(ranking) == twin.query(ranking)

    def test_batch_endpoint_matches_direct_batch(self):
        service = make_service()
        app = SimilarityServerApp(service)
        requests = generate_request_workload(
            corpus(), RequestWorkloadConfig(num_requests=12, seed=9))
        with InProcessServer(app) as server:
            with SimilarityClient(server.host, server.port) as client:
                over_wire = client.query_batch(requests)
        assert over_wire == service.batch(requests)

    def test_replace_upsert_reports_replaced(self):
        app = SimilarityServerApp(make_service())
        with InProcessServer(app) as server:
            with SimilarityClient(server.host, server.port) as client:
                client.upsert(Multiset("twice", {"a": 1}))
                ack = client.upsert(Multiset("twice", {"b": 2}))
        assert ack == {"indexed": "twice", "replaced": True}

    def test_delete_of_unknown_id_is_409_serving_error(self):
        app = SimilarityServerApp(make_service())
        with InProcessServer(app) as server:
            with SimilarityClient(server.host, server.port) as client:
                with pytest.raises(RemoteServerError) as caught:
                    client.delete("ghost")
        assert caught.value.code == "serving_error"
        assert caught.value.status == 409

    def test_health_and_shard_stats(self):
        app = SimilarityServerApp(make_service(num_shards=3))
        with InProcessServer(app) as server:
            with SimilarityClient(server.host, server.port) as client:
                health = client.health()
                shards = client.shard_stats()
        assert health["status"] == "ok"
        assert health["num_shards"] == 3
        assert set(shards["per_node"]) == {
            "shard0/replica0", "shard1/replica0", "shard2/replica0"}

    def test_malformed_json_body_is_400(self):
        app = SimilarityServerApp(make_service())
        with InProcessServer(app) as server:
            connection = http.client.HTTPConnection(server.host, server.port,
                                                    timeout=10)
            connection.request("POST", "/query", body=b"{nope",
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            body = json.loads(response.read())
            connection.close()
        assert response.status == 400
        assert body["error"]["code"] == "bad_request"

    def test_admin_persist_and_recover_round_trip(self):
        members = corpus()
        app = SimilarityServerApp(make_service(members=members))
        probe = QueryRequest.threshold(members[0].with_id("probe"), 0.3)
        with tempfile.TemporaryDirectory() as directory:
            target = os.path.join(directory, "snap")
            with InProcessServer(app) as server:
                with SimilarityClient(server.host, server.port) as client:
                    before = client.query(probe)
                    persisted = client.persist(target)
                    assert persisted["num_shards"] == 2
                    assert all(os.path.exists(path)
                               for path in persisted["persisted"])
                    recovered = client.recover(target)
                    assert recovered == {"recovered": True, "num_shards": 2,
                                         "indexed_multisets": len(members)}
                    # The recovered fleet answers identically and still
                    # accepts writes through the rebuilt queues.
                    assert client.query(probe) == before
                    client.upsert(Multiset("fresh", {"e0": 1}))
                    assert client.delete("fresh") == {"deleted": "fresh"}

    def test_view_mode_routes_writes_through_the_join_view(self):
        members = corpus()
        view = JoinView(JoinSpec(measure="ruzicka", threshold=0.5,
                                 algorithm="exact"), members)
        service = unreplicated_fleet("ruzicka", num_shards=2)
        app = SimilarityServerApp(service, view=view)
        with InProcessServer(app) as server:
            with SimilarityClient(server.host, server.port) as client:
                assert client.health()["mode"] == "view"
                newcomer = Multiset("vnew", dict(members[0].items()))
                ack = client.upsert(newcomer)
                assert ack["indexed"] == "vnew"
                assert "pair_deltas" in ack
                assert "vnew" in view
                assert "vnew" in service
                client.delete("vnew")
                assert "vnew" not in view
                assert "vnew" not in service
                # recover is a direct-mode operation.
                with pytest.raises(RemoteServerError) as caught:
                    client.recover("/nonexistent")
                assert caught.value.code == "server_error"

    def test_view_mode_over_a_replicated_fleet_stays_exact(self):
        # View writes reach every replica through the fleet's fan-in.
        members = corpus()
        view = JoinView(JoinSpec(measure="ruzicka", threshold=0.5,
                                 algorithm="exact"), members)
        service = ReplicatedSimilarityService("ruzicka", 2,
                                              replication_factor=2)
        oracle = SimilarityIndex("ruzicka")
        oracle.bulk_load(members)
        newcomer = Multiset("vnew", dict(members[0].items()))
        probes = [QueryRequest.threshold(members[0].with_id("probe"), 0.3),
                  QueryRequest.topk(members[3].with_id("probe"), 5)]
        with InProcessServer(SimilarityServerApp(service, view=view)) as server:
            with SimilarityClient(server.host, server.port) as client:
                client.upsert(newcomer)
                client.upsert(newcomer)  # replace
                client.delete(members[1].id)
                oracle.add(newcomer)
                oracle.remove(members[1].id)
                for _ in range(2):  # both replicas of every shard answer
                    assert client.query_batch(probes) == \
                        [oracle.query(probe) for probe in probes]
                assert all(entry["healthy"] == 2 for entry in
                           client.replicas()["replicas"].values())


# ---------------------------------------------------------------------------
# One lane: two queues, one fleet thread, a recover swap ordered among writes
# ---------------------------------------------------------------------------

async def upsert(app, multiset) -> int:
    status, _, _ = await app.handle(
        "POST", "/upsert", {"multiset": multiset_to_wire(multiset)})
    return status


class TestOneLane:
    def test_failed_recover_leaves_the_server_writable(self, tmp_path):
        # Regression: the write queues were closed before the swap and
        # rebuilt only after it, so a recover that raised answered every
        # later write 429 "shutting down" until the process was restarted.
        async def scenario():
            app = await started_app()
            before = await upsert(app, Multiset("before", {"zz": 2}))
            status, body, _ = await app.handle(
                "POST", "/admin/recover",
                {"directory": str(tmp_path / "missing")})
            after = await upsert(app, Multiset("after", {"zz": 2}))
            probe = QueryRequest.threshold(Multiset("probe", {"zz": 2}), 1.0)
            _, answer, _ = await app.handle("POST", "/query",
                                            probe.to_json_dict())
            await app.shutdown()
            return before, status, body["error"]["code"], after, answer

        before, status, code, after, answer = run_async(scenario())
        assert (before, status, code, after) \
            == (200, 500, "storage_error", 200)
        assert QueryResponse.from_json_dict(answer).ids() \
            == ["after", "before"]

    @pytest.mark.parametrize("persisted_shards", [2, 4])
    def test_writes_racing_a_recover_swap_land_on_the_recovered_fleet(
            self, tmp_path, monkeypatch, persisted_shards):
        # Regression: a write arriving while the swap was in flight met the
        # closed queues (429), and one after a swap to *more* shards indexed
        # the old queue list with the new fleet's shard number.  The app
        # starts on 2 shards; every shard of the recovered fleet gets one
        # write submitted mid-swap and one after it.
        members = corpus()
        make_service(persisted_shards, members).persist(tmp_path)
        fresh = {}
        for number in range(200):
            fresh.setdefault(shard_for(f"fresh{number}", persisted_shards),
                             []).append(f"fresh{number}")
        racing = [ids[0] for ids in fresh.values()]
        later = [ids[1] for ids in fresh.values()]
        assert len(racing) == persisted_shards
        swapping, release = threading.Event(), threading.Event()
        recover = ReplicatedSimilarityService.recover

        def held_open(directory, **options):
            swapping.set()
            release.wait(10)
            return recover(directory, **options)

        monkeypatch.setattr(ReplicatedSimilarityService, "recover",
                            staticmethod(held_open))

        async def scenario():
            app = await started_app()
            started_on = app.service
            swap = asyncio.ensure_future(app.handle(
                "POST", "/admin/recover", {"directory": str(tmp_path)}))
            await asyncio.get_running_loop().run_in_executor(
                None, swapping.wait, 10)
            writes = [asyncio.ensure_future(
                upsert(app, Multiset(name, {"zz": 1}))) for name in racing]
            await asyncio.sleep(0.02)
            answered_early = [write.done() for write in writes]
            release.set()
            statuses = [(await swap)[0]] + list(await asyncio.gather(*writes))
            statuses += [await upsert(app, Multiset(name, {"zz": 1}))
                         for name in later]
            service = app.service
            await app.shutdown()
            return started_on, service, answered_early, statuses

        started_on, service, answered_early, statuses = run_async(scenario())
        assert not any(answered_early)  # queued behind the swap, not refused
        assert statuses == [200] * (1 + 2 * persisted_shards)
        assert service is not started_on
        assert service.num_shards == persisted_shards
        assert len(service) == len(members) + 2 * persisted_shards
        for shard, ids in fresh.items():
            assert ids[0] in service.shards[shard] \
                and ids[1] in service.shards[shard]
            assert ids[0] not in started_on

    @pytest.mark.parametrize("mode", ["direct", "view"])
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_census_two_queue_workers_one_fleet_thread(self, tmp_path,
                                                       num_shards, mode):
        members = corpus()
        if mode == "view":
            view = JoinView(JoinSpec(measure="ruzicka", threshold=0.5,
                                     algorithm="exact"), members)
            app = SimilarityServerApp(
                unreplicated_fleet("ruzicka", num_shards=num_shards),
                view=view)
        else:
            app = SimilarityServerApp(make_service(num_shards, members))
        probe = QueryRequest.topk(members[0].with_id("probe"), 3)

        async def scenario():
            await app.startup()
            workers = sorted(task.get_name() for task in asyncio.all_tasks()
                             if task.get_name().startswith("queue-"))
            statuses = [
                (await app.handle("POST", "/query",
                                  probe.to_json_dict()))[0],
                await upsert(app, Multiset("fresh", {"zz": 1})),
                (await app.handle("POST", "/admin/persist",
                                  {"directory": str(tmp_path)}))[0]]
            lanes = [thread.name for thread in threading.enumerate()
                     if thread.name.startswith("repro-fleet")]
            queues = set(app.server_stats()["queues"])
            await app.shutdown()
            return workers, statuses, lanes, queues

        workers, statuses, lanes, queues = run_async(scenario())
        assert workers == ["queue-queries", "queue-writes"]
        assert statuses == [200, 200, 200]
        assert len(lanes) == 1
        assert queues == {"queries", "writes"}
        assert not [thread for thread in threading.enumerate()
                    if thread.name.startswith("repro-fleet")]

    def test_unusable_directories_answer_storage_error(self, tmp_path):
        # Regression: both answered 500 internal_error (FileNotFoundError).
        a_file = tmp_path / "a-file"
        a_file.write_text("not a directory")

        async def scenario():
            app = await started_app()
            answers = [await app.handle("POST", path, {"directory": target})
                       for path, target in (
                           ("/admin/recover", str(a_file)),
                           ("/admin/persist", str(a_file / "below")))]
            await app.shutdown()
            return answers

        for status, body, _ in run_async(scenario()):
            assert (status, body["error"]["code"]) == (500, "storage_error")
            assert "a-file" in body["error"]["message"]

    @pytest.mark.parametrize("lose_state", ["false", "no", 0, 0.0, 1, None])
    def test_kill_takes_lose_state_as_a_json_boolean_only(self, lose_state):
        # Regression: bool("false") is True — the reply said lose_state
        # true and the replica was wiped.
        async def scenario():
            app = await started_app()
            node = app.service.shards[0].replicas[0].node
            held = len(node)
            refused = await app.handle(
                "POST", "/admin/kill",
                {"shard": 0, "replica": 0, "lose_state": lose_state})
            untouched = app.service.replica_health()["shard0"]["healthy"]
            kept = await app.handle(
                "POST", "/admin/kill",
                {"shard": 0, "replica": 0, "lose_state": False})
            await app.shutdown()
            return held, refused, untouched, kept, len(node)

        held, refused, untouched, kept, left = run_async(scenario())
        assert (refused[0], refused[1]["error"]["code"]) \
            == (400, "server_error")
        assert "lose_state" in refused[1]["error"]["message"]
        assert untouched == 1
        assert kept[:2] == (200, {"killed": {"shard": 0, "replica": 0,
                                             "lose_state": False}})
        assert held == left > 0


# ---------------------------------------------------------------------------
# Backpressure (satellite: fill the queue, 429 + Retry-After, recover)
# ---------------------------------------------------------------------------

class TestBackpressure:
    def test_full_queue_answers_429_then_recovers(self):
        service = make_service()
        config = ServerConfig(query_queue_capacity=2, query_max_batch=1,
                              retry_after_seconds=0.25)
        app = SimilarityServerApp(service, config=config)
        release = threading.Event()
        original = app._execute_queries

        def blocked_execute(requests):
            release.wait(30)
            return original(requests)

        app._execute_queries = blocked_execute
        request = QueryRequest.threshold(corpus()[0].with_id("probe"), 0.3)

        with InProcessServer(app) as server:
            stats_client = SimilarityClient(server.host, server.port)

            def queue_depth():
                queues = stats_client.stats()["server"]["queues"]
                return (queues["queries"]["admitted"],
                        queues["queries"]["depth"])

            answers = []
            workers = []
            # Admit three requests: one executing (blocked), two queued.
            for admitted_target, depth_target in ((1, 0), (2, 1), (3, 2)):
                worker = threading.Thread(
                    target=lambda: answers.append(
                        SimilarityClient(server.host,
                                         server.port).query(request)))
                worker.start()
                workers.append(worker)
                deadline = time.monotonic() + 10
                while queue_depth() != (admitted_target, depth_target):
                    assert time.monotonic() < deadline, \
                        f"queue never reached {admitted_target}/{depth_target}"
                    time.sleep(0.002)

            # The queue is full: the next request is shed at the door.
            connection = http.client.HTTPConnection(server.host, server.port,
                                                    timeout=10)
            connection.request(
                "POST", "/query",
                body=json.dumps(request.to_json_dict()).encode(),
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            rejected_body = json.loads(response.read())
            retry_after = response.getheader("Retry-After")
            connection.close()

            assert response.status == 429
            assert rejected_body["error"]["code"] == "queue_full"
            assert rejected_body["error"]["retry_after_seconds"] == 0.25
            assert float(retry_after) == pytest.approx(0.25)

            # Unblock: the admitted requests complete, new traffic flows.
            release.set()
            for worker in workers:
                worker.join(timeout=30)
            assert len(answers) == 3
            assert answers[0] == answers[1] == answers[2]
            recovered = stats_client.query(request)
            assert recovered == answers[0]
            queues = stats_client.stats()["server"]["queues"]
            assert queues["queries"]["rejected"] == 1
            stats_client.close()


class TestBatchAdmission:
    """``/query/batch`` is admitted whole or refused whole."""

    @staticmethod
    def batch_payload(first: int, count: int) -> dict:
        members = corpus()
        return {"requests": [
            QueryRequest.threshold(members[position].with_id(f"q{position}"),
                                   0.3).to_json_dict()
            for position in range(first, first + count)]}

    def test_batch_refused_for_lack_of_room_executes_nothing(self):
        async def scenario():
            app = SimilarityServerApp(make_service(), config=ServerConfig(
                query_queue_capacity=8, query_max_batch=1))
            release = threading.Event()
            original = app._execute_queries

            def blocked_execute(requests):
                release.wait(30)
                return original(requests)

            app._execute_queries = blocked_execute
            await app.startup()
            # Five admitted: one executing (blocked), four queued.
            first = asyncio.ensure_future(
                app.handle("POST", "/query/batch", self.batch_payload(0, 5)))
            deadline = time.monotonic() + 10
            while app._query_queue.depth != 4:
                assert time.monotonic() < deadline, "queue never reached 4"
                await asyncio.sleep(0.002)
            # Room for four, six asked: refused whole, counted once.
            status, body, headers = await app.handle(
                "POST", "/query/batch", self.batch_payload(5, 6))
            assert status == 429
            assert body["error"]["code"] == "queue_full"
            assert "Retry-After" in headers
            release.set()
            status, body, _ = await first
            assert status == 200 and len(body["responses"]) == 5
            queue = app._query_queue
            await app.shutdown(drain=True)  # whatever was queued has run
            return queue.stats(), app.service.stats()

        queue, fleet = run_async(scenario())
        assert (queue["admitted"], queue["rejected"],
                queue["executed_items"]) == (5, 1, 5)
        # Nothing of the refused batch reached an index: 5 scans per shard.
        assert fleet["serving/threshold_queries"] == 5 * fleet["num_shards"]

    def test_batch_larger_than_the_queue_is_a_bad_request(self):
        async def scenario():
            app = SimilarityServerApp(make_service(), config=ServerConfig(
                query_queue_capacity=4))
            await app.startup()
            status, body, headers = await app.handle(
                "POST", "/query/batch", self.batch_payload(0, 6))
            assert status == 400
            assert body["error"]["code"] == "server_error"
            assert "at most 4" in body["error"]["message"]
            assert "Retry-After" not in headers  # retrying cannot help
            stats = app.server_stats()["queues"]["queries"]
            assert (stats["admitted"], stats["rejected"],
                    stats["executed_items"]) == (0, 0, 0)
            assert "serving/threshold_queries" not in app.service.stats()
            # A batch of exactly the capacity is admitted.
            status, body, _ = await app.handle(
                "POST", "/query/batch", self.batch_payload(0, 4))
            assert status == 200 and len(body["responses"]) == 4
            await app.shutdown()

        run_async(scenario())


# ---------------------------------------------------------------------------
# Graceful shutdown
# ---------------------------------------------------------------------------

class TestGracefulShutdown:
    def test_drain_completes_queued_work(self):
        async def scenario():
            app = SimilarityServerApp(
                make_service(),
                config=ServerConfig(query_max_batch=1))
            await app.startup()
            request = QueryRequest.topk(corpus()[0].with_id("probe"), 3)
            direct = app.service.batch([request])[0]
            tasks = [asyncio.ensure_future(
                app.handle("POST", "/query", request.to_json_dict()))
                for _ in range(6)]
            # Let admissions land, then drain while work is still queued.
            await asyncio.sleep(0)
            await app.shutdown(drain=True)
            results = await asyncio.gather(*tasks)
            assert all(status == 200 for status, _, _ in results)
            for _, body, _ in results:
                assert QueryResponse.from_json_dict(body) == direct

        run_async(scenario())

    def test_persist_on_shutdown_writes_a_recoverable_fleet(self):
        members = corpus()
        with tempfile.TemporaryDirectory() as directory:
            target = os.path.join(directory, "final")

            async def scenario():
                app = SimilarityServerApp(
                    make_service(members=members),
                    config=ServerConfig(persist_on_shutdown=target))
                await app.startup()
                await app.shutdown(drain=True)

            run_async(scenario())
            recovered = ReplicatedSimilarityService.recover(target)
        twin = make_service(members=members)
        probe = QueryRequest.threshold(members[0].with_id("probe"), 0.3)
        assert recovered.query(probe) == twin.query(probe)


# ---------------------------------------------------------------------------
# Seeded request workloads (the load generator itself is benchmarks/e2e's)
# ---------------------------------------------------------------------------

class TestLoadGenerators:
    def test_request_workload_mix_and_determinism(self):
        members = corpus()
        config = RequestWorkloadConfig(num_requests=50,
                                       threshold_fraction=0.5, seed=33)
        first = generate_request_workload(members, config)
        second = generate_request_workload(members, config)
        assert first == second
        kinds = {request.options.kind for request in first}
        assert kinds == {"threshold", "topk"}
        # Same multiset stream for every mix: only the options differ.
        all_threshold = generate_request_workload(
            members, RequestWorkloadConfig(num_requests=50,
                                           threshold_fraction=1.0, seed=33))
        assert [request.query for request in first] \
            == [request.query for request in all_threshold]
        # The open-loop schedule: seeded, starts at zero, never goes back.
        arrivals = generate_open_loop_arrivals(20, 2000.0, seed=4)
        assert arrivals == generate_open_loop_arrivals(20, 2000.0, seed=4)
        assert len(arrivals) == 20
        assert arrivals[0] == 0.0
        assert arrivals == sorted(arrivals)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCommandLine:
    def test_build_app_demo_and_persist_flags(self):
        from repro.server.__main__ import build_app, build_parser

        args = build_parser().parse_args(
            ["--shards", "2", "--measure", "jaccard", "--demo", "8"])
        app = build_app(args)
        assert app.service.num_shards == 2
        assert app.service.measure.name == "jaccard"
        assert len(app.service) == 8

    def test_build_app_recover_flag(self):
        members = corpus()
        with tempfile.TemporaryDirectory() as directory:
            make_service(members=members).persist(directory)
            from repro.server.__main__ import build_app, build_parser

            args = build_parser().parse_args(["--recover", directory])
            app = build_app(args)
        assert len(app.service) == len(members)
        assert app.service.num_shards == 2
        assert app.service.replication_factor == 1

    def test_every_knob_has_a_reader(self):
        # A ServerConfig field nothing reads as ``config.<name>`` outside the
        # class body, or a flag ``--help`` lists that ``__main__`` never
        # reads as ``args.<dest>``, selects nothing: delete it.  (Reading a
        # value is necessary, not sufficient — the two knobs 3.2 removed
        # were read, into a pool and an in-flight bound that the one lock
        # made moot; the census in TestOneLane pins the behaviour.)
        import repro.server
        from repro.server.__main__ import build_parser

        read: dict[str, set[str]] = {"config": set(), "args": set()}
        fields = []
        package = pathlib.Path(repro.server.__file__).parent
        for source in sorted(package.glob("*.py")):
            pending = [ast.parse(source.read_text())]
            while pending:
                node = pending.pop()
                if isinstance(node, ast.ClassDef) \
                        and node.name == "ServerConfig":
                    fields = [statement.target.id for statement in node.body
                              if isinstance(statement, ast.AnnAssign)]
                    continue
                if isinstance(node, ast.Attribute):
                    owner = node.value
                    owner = getattr(owner, "attr", getattr(owner, "id", None))
                    if owner in read:
                        read[owner].add(node.attr)
                pending.extend(ast.iter_child_nodes(node))
        assert "query_queue_capacity" in fields  # the class was found
        assert set(fields) - read["config"] == set()
        flags = set(re.findall(r"--([a-z][a-z-]*)",
                               build_parser().format_help())) - {"help"}
        assert "port" in flags
        assert {flag.replace("-", "_") for flag in flags} - read["args"] \
            == set()

    @pytest.mark.parametrize("replication", ["1", "2"])
    @pytest.mark.parametrize("source", ["--shards", "--recover"])
    def test_chaos_and_health_flags_apply_to_every_fleet(self, tmp_path,
                                                         replication, source):
        # Regression: --chaos-latency was dropped under --recover, and both
        # flags were dropped at --replication 1.
        from repro.server.__main__ import build_app, build_parser

        make_service().persist(tmp_path)
        app = build_app(build_parser().parse_args(
            ["--replication", replication, "--chaos-latency", "0.02",
             "--health-interval", "0.5",
             source, "2" if source == "--shards" else str(tmp_path)]))
        assert app.config.health_check_interval_seconds == 0.5
        assert app.service.replication_factor == int(replication)
        started = time.perf_counter()
        app.service.query(QueryRequest.topk(corpus()[0].with_id("q"), 3))
        # One injected sleep per shard: a lower bound no scheduler can beat.
        assert time.perf_counter() - started >= 0.02 * 2
