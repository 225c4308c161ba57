"""The traced run: one ladder of layers, climbed over the workload's inputs.

Every workload's traced run measures every layer of ``src/repro`` with the
same code, so each per-layer metric exists on each workload and differs only
through the workload's corpus and request stream:

* the batch half traces joins of the workload's corpus (for a serving
  workload, of a join-sized prefix of the served corpus) with the pinned
  algorithm, with the other general-purpose joining algorithm, and with
  ``algorithm="auto"``;
* the serving half times the same request list at each rung — index, node,
  4-shard fleet, RF-2 fleet, wire codec, ``SimilarityServerApp.handle``
  without sockets, ``SimilarityClient`` against a server subprocess — then
  the write rungs, persist/recover, and a short open loop for the load
  generator's own lateness.

Tracing overhead is the traced over the untraced time of the workload's own
operation (the pinned join, or a ``/query`` round trip), measured in
alternating segments of this same run.
"""

from __future__ import annotations

import asyncio
import functools
import json
import random
import time
from contextlib import nullcontext
from typing import NamedTuple

from repro import (
    CorpusProfile,
    Planner,
    ReplicatedSimilarityService,
    ServingNode,
    SimilarityIndex,
    VCLJoin,
    VSmartJoin,
    bootstrap_from_join,
)
from repro.core.interning import InterningContext
from repro.mapreduce import LocalJobRunner
from repro.server import SimilarityServerApp
from repro.serving.api import QueryRequest

from benchmarks.e2e import joins, serving
from benchmarks.e2e.inputs import (
    Sizes,
    Workload,
    join_corpus,
    ladder_join_corpus,
    mixed_schedule,
    perturbed,
    request_stream,
    served_corpus,
)
from benchmarks.e2e.loadgen import Op, closed_loop, connect, open_loop
from benchmarks.e2e.server_proc import ServerProcess
from benchmarks.e2e.speed import (
    REFERENCE_SECONDS,
    Reference,
    at_reference_speed,
    kernel_seconds,
)
from benchmarks.e2e.summary import RunResult, median, percentile
from benchmarks.e2e.tracing import TimingBackend, Tracer, count_calls

#: The public entry points of the batch layers, and the span each becomes.
JOIN_TARGETS = (
    (CorpusProfile, "from_multisets", "engine.profile"),
    (Planner, "plan", "engine.plan"),
    (InterningContext, "from_input_tuples", "core.intern"),
    (InterningContext, "intern_records", "core.intern"),
    (InterningContext, "restore_pairs", "core.intern"),
    (VSmartJoin, "run", "vsmart.driver"),
    (VCLJoin, "run", "vcl.driver"),
    (LocalJobRunner, "run",
     lambda runner, job, dataset: f"mapreduce.job.{job.name}"),
)
#: Share of ``--seconds`` the batch half may use; the rest has fixed sizes.
JOIN_SHARE = 0.45


class Half(NamedTuple):
    """What one half of the ladder measured."""

    metrics: dict[str, float]
    diagnostics: dict
    attempted: int
    failed: int


def run(workload: Workload, seed: int, seconds: float,
        sizes: Sizes) -> RunResult:
    """The traced run of ``workload``: every per-layer metric, and spans."""
    tracer = Tracer()
    if workload.kind == "join":
        corpus = join_corpus(workload, seed, sizes)
        joined = corpus
    else:
        corpus = served_corpus(workload, seed, sizes)
        joined = ladder_join_corpus(corpus, sizes)
    batch = trace_joins(workload, joined, seconds * JOIN_SHARE, sizes, tracer)
    with serving.scratch_directory() as directory:
        served = trace_serving(workload, corpus, seed, sizes, tracer,
                               directory)
    diagnostics = {**batch.diagnostics, **served.diagnostics}
    own = "join" if workload.kind == "join" else "query"
    metrics = {**batch.metrics, **served.metrics,
               "trace.overhead_share": diagnostics[f"{own}_overhead_share"]}
    return RunResult(metrics, attempted=batch.attempted + served.attempted,
                     failed=batch.failed + served.failed,
                     diagnostics=diagnostics, spans=tracer.to_json())


# -- the batch half -------------------------------------------------------------


def trace_joins(workload: Workload, corpus, budget: float, sizes: Sizes,
                tracer: Tracer) -> Half:
    """Trace joins of ``corpus``: the batch layers' metrics."""
    engine = joins.make_engine()
    backend = TimingBackend(tracer)
    algorithms = list(dict.fromkeys(
        (workload.pinned, "sharding", "online_aggregation", "auto")))
    plain = joins.join_spec(workload, workload.pinned)
    engine.run(plain, corpus)                       # warm-up, as in set-up
    untraced, speeds, results = [], [], {}
    rounds = 0
    deadline = time.perf_counter() + budget
    while rounds < min(2, sizes.min_repeats) or time.perf_counter() < deadline:
        # The untraced join and its traced twin (the pinned algorithm comes
        # first) run back to back, a reference-kernel sample around each.
        speed = [kernel_seconds()]
        untraced.append(joins.timed(lambda: engine.run(plain, corpus))[0])
        with tracer.patched(JOIN_TARGETS):
            for algorithm in algorithms:
                speed.append(kernel_seconds())
                spec = joins.join_spec(workload, algorithm, backend)
                with tracer.span("engine.run", run=f"{algorithm}#{rounds}"):
                    results[algorithm] = engine.run(spec, corpus)
        speeds.append(speed)
        rounds += 1
    calls = count_calls(lambda: engine.run(plain, corpus))
    exact = engine.run(joins.join_spec(workload, "exact"), corpus).pairs
    engine.close()

    runs = tracer.runs()

    # Each round is quoted at reference speed, by its own kernel samples.
    round_scale = [REFERENCE_SECONDS * len(speed) / sum(speed)
                   for speed in speeds]

    def per_round(algorithm: str, pick) -> float:
        return median([pick(runs[f"{algorithm}#{index}"]) * round_scale[index]
                       for index in range(rounds)])

    def total(name: str):
        return lambda spans: spans.get(name, {"total": 0.0})["total"]

    def own(name: str):
        return lambda spans: spans.get(name, {"self": 0.0})["self"]

    def runner_self(spans) -> float:
        return sum(entry["self"] for name, entry in spans.items()
                   if name.startswith("mapreduce.job."))

    def driver_total(spans) -> float:
        return total("vsmart.driver")(spans) + total("vcl.driver")(spans)

    pinned = workload.pinned
    result = results[pinned]
    stats = [result.stats_for(name) for name in result.job_names()]
    candidates = result.counters()["similarity1/candidate_records"]
    join_s = per_round(pinned, total("engine.run"))
    metrics = {
        "engine.profile_s": per_round("auto", total("engine.profile")),
        "engine.plan_s": per_round("auto", own("engine.plan")),
        "engine.auto_execute_s": per_round("auto", driver_total),
        "engine.calls_per_join": calls,
        "engine.run_self_s": per_round(pinned, own("engine.run")),
        "core.intern_s": per_round(pinned, own("core.intern")),
        "vsmart.driver_self_s": per_round(pinned, own("vsmart.driver")),
        "mapreduce.job.sharding1_s": per_round(
            "sharding", total("mapreduce.job.sharding1")),
        "mapreduce.job.sharding2_s": per_round(
            "sharding", total("mapreduce.job.sharding2")),
        "mapreduce.job.online_aggregation_s": per_round(
            "online_aggregation", total("mapreduce.job.online_aggregation")),
        "mapreduce.job.similarity1_s": per_round(
            pinned, total("mapreduce.job.similarity1")),
        "mapreduce.job.similarity2_s": per_round(
            pinned, total("mapreduce.job.similarity2")),
        "mapreduce.map_s": per_round(pinned, total("mapreduce.map")),
        "mapreduce.combine_s": per_round(pinned, total("mapreduce.combine")),
        "mapreduce.reduce_s": per_round(pinned, total("mapreduce.reduce")),
        "mapreduce.runner_self_s": per_round(pinned, runner_self),
        "mapreduce.records_in": sum(job.map.records_in for job in stats),
        "mapreduce.shuffle_bytes": sum(job.shuffle_bytes for job in stats),
        "mapreduce.reduce_groups": sum(job.reduce_groups for job in stats),
        "vsmart.candidate_records": candidates,
        "engine.pairs_out": len(result.pairs),
        "vsmart.candidate_yield": len(result.pairs) / candidates,
        "mapreduce.simulated_s": result.simulated_seconds,
        "engine.sim_over_wall_ratio": result.simulated_seconds / join_s,
    }
    # Every span of a pinned join belongs to one of the seven self-time
    # layers above, so in each round they must add up to the join: a span
    # the metrics do not account for shows up here as a gap.  (Checked per
    # round; medians taken over rounds at different host speeds need not
    # add up.)
    layers = (own("engine.run"), own("core.intern"), own("vsmart.driver"),
              total("mapreduce.map"), total("mapreduce.combine"),
              total("mapreduce.reduce"), runner_self)
    gap = max(
        abs(sum(pick(spans) for pick in layers) / total("engine.run")(spans)
            - 1.0)
        for spans in (runs[f"{pinned}#{index}"] for index in range(rounds)))
    wrong = sum(result.pairs != exact for result in results.values())
    # Paired by round, each of the pair scaled to reference speed by the
    # kernel samples either side of it (see speed.py).
    overhead = median(
        at_reference_speed(total("engine.run")(runs[f"{pinned}#{index}"]),
                           *speeds[index][1:3])
        / at_reference_speed(untraced[index], *speeds[index][0:2])
        for index in range(rounds)) - 1.0
    diagnostics = {"join_rounds": rounds, "sum_to_root_gap": gap,
                   "traced_join_s": join_s,
                   "untraced_join_s": median(untraced),
                   "join_overhead_share": overhead,
                   "auto_algorithm": results["auto"].algorithm}
    return Half(metrics, diagnostics, attempted=len(results) + 1,
                failed=wrong + (gap > 0.05))


# -- the serving half -----------------------------------------------------------


def per_call_us(tracer: Tracer, reference: Reference, name: str, function,
                arguments) -> float:
    """Median microseconds of ``function(argument)`` at reference speed, one
    span per call.

    The span is appended after the call from the two clock readings already
    taken, so recording costs the timed section nothing.
    """
    samples = []
    for position, argument in enumerate(arguments):
        started = time.perf_counter()
        function(argument)
        ended = time.perf_counter()
        tracer.spans.append([name, position, None, started, ended])
        samples.append(ended - started)
    return reference.scaled(median(samples)) * 1e6


def make_fleet(corpus, replication: int):
    """A cold 4-shard fleet over ``corpus`` with ``replication`` replicas."""
    if replication == 1:
        return bootstrap_from_join(corpus, num_shards=4)
    fleet = ReplicatedSimilarityService("ruzicka", 4,
                                        replication_factor=replication)
    fleet.bulk_load(corpus)
    return fleet


async def handle_rung(tracer: Tracer, reference: Reference, fleet,
                      payloads) -> float:
    """Median microseconds of ``app.handle`` on a loop, no sockets, at
    reference speed."""
    app = SimilarityServerApp(fleet)
    await app.startup()
    try:
        samples = []
        for position, payload in enumerate(payloads):
            started = time.perf_counter()
            status, _, _ = await app.handle("POST", "/query", payload)
            ended = time.perf_counter()
            if status != 200:
                raise RuntimeError(f"app.handle answered {status}")
            tracer.spans.append(["server.app.handle", position, None,
                                 started, ended])
            samples.append(ended - started)
        return reference.scaled(median(samples)) * 1e6
    finally:
        await app.shutdown()


def trace_serving(workload: Workload, corpus, seed: int, sizes: Sizes,
                  tracer: Tracer, directory: str) -> Half:
    """Climb the serving ladder: the serving layers' metrics."""
    # As in the serving workloads, a warm-up prefix of the stream runs before
    # the timed list, so every rung starts from the same filled caches.
    stream = request_stream(workload, corpus, seed,
                            sizes.warmup_requests + sizes.ladder_requests)
    warm = stream[:sizes.warmup_requests]
    requests = stream[sizes.warmup_requests:]
    rng = random.Random(seed)
    changed = [perturbed(rng.choice(corpus), rng)
               for _ in range(max(8, sizes.ladder_requests // 5))]

    index = SimilarityIndex("ruzicka")
    index.bulk_load(corpus)
    node = ServingNode("ruzicka")
    node.bulk_load(corpus)
    fleets = {1: make_fleet(corpus, 1), 2: make_fleet(corpus, 2)}
    for target in (node, fleets[1], fleets[2]):
        target.batch(warm)
    reference = Reference()
    timed_us = functools.partial(per_call_us, tracer, reference)
    index_us = timed_us("serving.index.query", index.query, requests)
    counters = index.counters()
    node_us = timed_us("serving.node.query", node.query, requests)
    fleet_us = {
        1: timed_us("serving.service.query", fleets[1].query, requests),
        2: timed_us("resilience.service.query", fleets[2].query, requests)}

    # The wire codec, in its two halves: the dataclass half runs inside
    # app.handle, the json half inside the HTTP transport.
    payloads = [request.to_json_dict() for request in requests]
    bodies = [json.dumps(payload).encode() for payload in payloads]
    responses = [index.query(request) for request in requests]
    documents = [response.to_json_dict() for response in responses]
    parse_us = timed_us("serving.api.from_json", QueryRequest.from_json_dict,
                        payloads)
    loads_us = timed_us("json.loads", json.loads, bodies)
    render_us = timed_us("serving.api.to_json",
                         lambda response: response.to_json_dict(), responses)
    dumps_us = timed_us("json.dumps", json.dumps, documents)

    app_fleet = make_fleet(corpus, workload.replication)
    app_fleet.batch(warm)
    handle_us = asyncio.run(handle_rung(tracer, reference, app_fleet,
                                       payloads))

    def replace(target):
        return lambda multiset: target.add(multiset, replace=True)

    counted = make_fleet(corpus, 1)
    counted.batch(warm)
    fleet_calls = count_calls(lambda: [counted.query(request)
                                       for request in requests])
    metrics = {
        "serving.service.calls_per_query": fleet_calls / len(requests),
        "serving.index.query_us": index_us,
        "serving.index.prune_share": (
            counters.get("serving/candidates_pruned", 0)
            / max(1, counters.get("serving/candidates_examined", 0))),
        "serving.node.query_us": node_us,
        "serving.service.query_us": fleet_us[1],
        "serving.service.fanout_ratio": fleet_us[1] / node_us,
        "resilience.service.query_us": fleet_us[2],
        "resilience.rf2_over_rf1_ratio": fleet_us[2] / fleet_us[1],
        "serving.api.decode_us": loads_us + parse_us,
        "serving.api.encode_us": render_us + dumps_us,
        "server.app.handle_us": handle_us,
        "server.app.self_us": (handle_us - fleet_us[workload.replication]
                               - parse_us - render_us),
        "serving.index.add_us": timed_us(
            "serving.index.add", replace(index), changed),
        "serving.service.add_us": timed_us(
            "serving.service.add", replace(fleets[1]), changed),
        "resilience.service.add_us": timed_us(
            "resilience.service.add", replace(fleets[2]), changed),
    }
    wire = trace_wire(workload, corpus, warm, requests, changed, seed, sizes,
                      tracer, directory)
    metrics.update(wire.metrics)
    metrics["server.http.self_us"] = (metrics["server.http.roundtrip_us"]
                                      - handle_us)
    return wire._replace(metrics=metrics)


def trace_wire(workload: Workload, corpus, warm, requests, changed,
               seed: int, sizes: Sizes, tracer: Tracer,
               directory: str) -> Half:
    """The rungs that need a server subprocess."""
    arguments = serving.fleet_arguments(workload)
    ops = [Op("query", request) for request in requests]

    def replay(server: ServerProcess, span=None):
        return closed_loop(server.host, server.port, ops, seconds=30.0,
                           span=span)

    def every_other(name: str, position: int):
        return tracer.span(name, position) if position % 2 else nullcontext()

    with ServerProcess(*arguments) as server:
        serving.wire_load(server, corpus)
        serving.warm_up(server, warm)
        before = serving.server_diagnostics(server)
        first = replay(server)
        stats = serving.server_diagnostics(server)
        # A second replay of the same list, a span around every other
        # request: what recording a span costs is the ratio of the two
        # interleaved halves, whatever else drifts meanwhile.
        second = replay(server, every_other)
        with connect(server.host, server.port) as client:
            upsert_us = per_call_us(tracer, Reference(), "client.upsert",
                                    client.upsert, changed)
            started = time.perf_counter()
            client.persist(directory)
            persist_s = time.perf_counter() - started
        # The load generator's own lateness, on a short open loop shaped
        # like the mixed workload.
        schedule = mixed_schedule(workload, corpus, seed + 6, sizes,
                                  len(ops) / 750.0)
        loop = open_loop(server.host, server.port, schedule, seconds=30.0,
                         span=tracer.span)
        rejected = serving.server_diagnostics(server)["rejected"]

    with ServerProcess(*arguments, "--recover", directory) as recovered:
        recover_s = recovered.ready_seconds
        with connect(recovered.host, recovered.port) as client:
            indexed = client.health()["indexed_multisets"]

    late = [outcome.late for outcome in loop.outcomes]
    hits = stats["cache_hits"] - before["cache_hits"]
    misses = stats["cache_misses"] - before["cache_misses"]
    metrics = {
        "server.http.roundtrip_us": median(first.latencies("query")) * 1e6,
        "serving.cache.hit_rate": hits / max(1, hits + misses),
        "server.queue.coalesced_batch_mean": stats["coalesced_batch_mean"],
        "server.queue.rejected": rejected,
        "server.upsert_roundtrip_us": upsert_us,
        "storage.persist_s": persist_s,
        "storage.recover_s": recover_s,
        "loadgen.late_p95_ms": percentile(late, 0.95) * 1000.0,
        "loadgen.achieved_rate": (len(loop.outcomes)
                                  / loop.elapsed_at_reference),
    }
    phases = (first, second, loop)
    failed = sum(outcome.status != "ok"
                 for phase in phases for outcome in phase.outcomes)
    oracle = serving.Oracle(corpus)
    failed += oracle.wrong_in(first) + oracle.wrong_in(second)
    # The snapshot was taken after upserts of existing ids only, so an exact
    # recovery comes back with exactly the corpus's members.
    failed += indexed != len(corpus)
    traced, untraced = ([outcome.latency for outcome in second.outcomes
                         if outcome.position % 2 == parity]
                        for parity in (1, 0))
    diagnostics = {
        "query_overhead_share": median(traced) / median(untraced) - 1.0,
        "open_loop_counts": loop.counts()}
    return Half(metrics, diagnostics,
                attempted=sum(len(phase.outcomes) for phase in phases) + 1,
                failed=failed)
