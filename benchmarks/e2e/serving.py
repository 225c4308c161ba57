"""The serving workloads: ``python -m repro.server`` driven over HTTP."""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import contextmanager

from repro import Multiset, SimilarityIndex
from repro.core.multiset import content_signature
from repro.serving.api import THRESHOLD_KIND, QueryRequest

from benchmarks.e2e.inputs import (
    BATCH_SIZE,
    Sizes,
    Workload,
    mixed_schedule,
    probe_requests,
    request_stream,
    served_corpus,
)
from benchmarks.e2e.loadgen import Op, Phase, closed_loop, connect, open_loop
from benchmarks.e2e.server_proc import ROOT, ServerProcess
from benchmarks.e2e.speed import (
    at_reference_speed,
    kernel_seconds,
    stolen_seconds,
)
from benchmarks.e2e.summary import RunResult, median, percentile, spread_ms

SHARDS = ("--shards", "4")


@contextmanager
def scratch_directory():
    """A directory inside the checkout for snapshots, removed afterwards."""
    parent = ROOT / ".bench_e2e"
    parent.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix="run-", dir=parent)
    try:
        yield directory
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def fleet_arguments(workload: Workload) -> tuple[str, ...]:
    """The CLI arguments of the workload's fleet: 4 shards, RF 1 or 2."""
    if workload.replication > 1:
        return SHARDS + ("--replication", str(workload.replication))
    return SHARDS


def wire_load(server: ServerProcess, corpus: list[Multiset]) -> None:
    """Index the corpus through ``POST /upsert``, one multiset at a time."""
    with connect(server.host, server.port) as client:
        for multiset in corpus:
            client.upsert(multiset)


def warm_up(server: ServerProcess, requests: list[QueryRequest],
            batch: int = 1) -> None:
    """Send the warm-up requests (singly, or in batches of ``batch``)."""
    with connect(server.host, server.port) as client:
        if batch == 1:
            for request in requests:
                client.query(request)
        else:
            for start in range(0, len(requests), batch):
                client.query_batch(requests[start:start + batch])


def persist_snapshot(workload: Workload, corpus: list[Multiset],
                     directory: str) -> float:
    """Empty server -> wire load -> ``POST /admin/persist`` -> stop.

    Returns the seconds the persist call took.
    """
    with ServerProcess(*fleet_arguments(workload)) as server:
        wire_load(server, corpus)
        with connect(server.host, server.port) as client:
            started = time.perf_counter()
            client.persist(directory)
            return time.perf_counter() - started


def fresh_servers(sizes: Sizes, arguments, prepare):
    """Set the server up ``sizes.setups`` times; keep the last one running.

    One set-up is: spawn with ``arguments``, wait for the announce line,
    ``prepare(server)`` (load, warm-up).  Returns the running server and
    the seconds each set-up took, at reference speed.
    """
    setups, server = [], None
    for _ in range(sizes.setups):
        if server is not None:
            server.stop()
        before = kernel_seconds()
        started = time.perf_counter()
        server = ServerProcess(*arguments)
        try:
            prepare(server)
        except BaseException:
            server.stop()
            raise
        elapsed = time.perf_counter() - started
        setups.append(at_reference_speed(elapsed, before, kernel_seconds()))
    return server, setups


class Oracle:
    """In-process answers from one unsharded index, computed once each."""

    def __init__(self, members) -> None:
        self.index = SimilarityIndex("ruzicka")
        self.index.bulk_load(members)
        self._answers: dict = {}

    def answer(self, request: QueryRequest):
        key = (content_signature(request.query), request.options)
        if key not in self._answers:
            self._answers[key] = self.index.query(request)
        return self._answers[key]

    def wrong(self, requests, responses) -> int:
        """How many of ``responses`` differ from the in-process answer."""
        return sum(self.answer(request) != response
                   for request, response in zip(requests, responses))

    def wrong_in(self, phase: Phase) -> int:
        """How many answered single queries of ``phase`` were answered wrongly."""
        answered = [outcome for outcome in phase.outcomes
                    if outcome.status == "ok" and outcome.op.kind == "query"]
        return self.wrong([outcome.op.payload for outcome in answered],
                          [outcome.response for outcome in answered])


def server_diagnostics(server: ServerProcess) -> dict:
    """Cache and queue counters from ``GET /stats``."""
    with connect(server.host, server.port) as client:
        stats = client.stats()
    queues = stats["server"]["queues"]
    return {"cache_hit_rate": stats["totals"]["cache/hit_rate"],
            "cache_hits": stats["totals"]["cache/hits"],
            "cache_misses": stats["totals"]["cache/misses"],
            "coalesced_batch_mean": queues["queries"]["mean_batch_size"],
            "rejected": sum(queue["rejected"] for queue in queues.values())}


def run(workload: Workload, seed: int, seconds: float,
        sizes: Sizes) -> RunResult:
    corpus = served_corpus(workload, seed, sizes)
    with scratch_directory() as directory:
        if workload.kind == "point":
            return run_point(workload, corpus, seed, seconds, sizes, directory)
        return run_mixed(workload, corpus, seed, seconds, sizes)


def run_point(workload: Workload, corpus: list[Multiset], seed: int,
              seconds: float, sizes: Sizes, directory: str) -> RunResult:
    """Closed loop of single ``POST /query`` on a fleet recovered from disk."""
    stream = request_stream(workload, corpus, seed,
                            sizes.warmup_requests + sizes.point_requests)
    warm = stream[:sizes.warmup_requests]
    ops = [Op("query", request) for request in stream[sizes.warmup_requests:]]
    persist_snapshot(workload, corpus, directory)

    server, setups = fresh_servers(
        sizes, (*fleet_arguments(workload), "--recover", directory),
        lambda server: warm_up(server, warm))
    try:
        stolen = stolen_seconds()
        phase = closed_loop(server.host, server.port, ops, seconds=seconds)
        stolen = stolen_seconds() - stolen
        peak_rss_mb = server.peak_rss_mb()
        diagnostics = server_diagnostics(server)
    finally:
        server.stop()

    wrong = Oracle(corpus).wrong_in(phase)
    by_kind: dict[str, list[float]] = {"threshold": [], "topk": []}
    for outcome in phase.outcomes:
        if outcome.status != "ok":
            continue
        kind = outcome.op.payload.options.kind
        by_kind["threshold" if kind == THRESHOLD_KIND else "topk"].append(
            outcome.latency * phase.scale(outcome.slice))
    counts = phase.counts()
    metrics = {"setup_s": median(setups),
               "main_p50_ms": median(by_kind["threshold"]) * 1000.0,
               "alt_p50_ms": median(by_kind["topk"]) * 1000.0,
               "ops_per_s": counts["ok"] / phase.elapsed_at_reference,
               "peak_rss_mb": peak_rss_mb}
    diagnostics.update(counts=counts, wrong=wrong, setups_s=setups,
                       main_ms=spread_ms(by_kind["threshold"]),
                       alt_ms=spread_ms(by_kind["topk"]),
                       raw_ms=spread_ms(phase.latencies("query", raw=True)),
                       raw_ops_per_s=counts["ok"] / phase.elapsed,
                       kernel_ms=spread_ms(phase.kernel),
                       stolen_s=stolen)
    return RunResult(metrics, attempted=counts["sent"],
                     failed=counts["failed"] + counts["refused"] + wrong,
                     diagnostics=diagnostics)


def apply_writes(members: dict, phase: Phase) -> None:
    """Apply the acknowledged writes to ``members`` in schedule order."""
    for outcome in sorted(phase.outcomes, key=lambda outcome: outcome.op.due):
        if outcome.status != "ok":
            continue
        if outcome.op.kind == "upsert":
            members[outcome.op.payload.id] = outcome.op.payload
        elif outcome.op.kind == "delete":
            del members[outcome.op.payload]


def run_mixed(workload: Workload, corpus: list[Multiset], seed: int,
              seconds: float, sizes: Sizes) -> RunResult:
    """Open loop of query batches and writes on a replicated fleet."""
    schedule = mixed_schedule(workload, corpus, seed, sizes, seconds)
    warm = request_stream(workload, corpus, seed + 4,
                          sizes.warmup_requests // 4)
    probes = probe_requests(workload, corpus, seed + 5, sizes.probes)

    def prepare(server: ServerProcess) -> None:
        wire_load(server, corpus)
        warm_up(server, warm, batch=BATCH_SIZE)

    server, setups = fresh_servers(sizes, fleet_arguments(workload), prepare)
    try:
        stolen = stolen_seconds()
        phase = open_loop(server.host, server.port, schedule,
                          seconds=seconds)
        stolen = stolen_seconds() - stolen
        # Quiesced: every operation has been answered.  Ask the probes.
        with connect(server.host, server.port) as client:
            probe_answers = client.query_batch(probes)
        peak_rss_mb = server.peak_rss_mb()
        diagnostics = server_diagnostics(server)
    finally:
        server.stop()

    members = {multiset.id: multiset for multiset in corpus}
    apply_writes(members, phase)
    wrong = Oracle(members.values()).wrong(probes, probe_answers)
    # A batch answered with the wrong number of responses is wrong too.
    wrong += sum(len(outcome.response) != len(outcome.op.payload)
                 for outcome in phase.outcomes
                 if outcome.status == "ok" and outcome.op.kind == "batch")
    counts = phase.counts()
    batches = phase.latencies("batch")
    writes = phase.latencies("upsert", "delete")
    late = [outcome.late for outcome in phase.outcomes]
    metrics = {"setup_s": median(setups),
               "main_p50_ms": median(batches) * 1000.0,
               "alt_p50_ms": median(writes) * 1000.0,
               "ops_per_s": counts["ok"] / phase.elapsed_at_reference,
               "peak_rss_mb": peak_rss_mb}
    diagnostics.update(counts=counts, wrong=wrong, setups_s=setups,
                       late_p95_ms=percentile(late, 0.95) * 1000.0,
                       offered_per_s=sizes.mixed_rate,
                       main_ms=spread_ms(batches), alt_ms=spread_ms(writes),
                       main_raw_ms=spread_ms(phase.latencies("batch",
                                                             raw=True)),
                       alt_raw_ms=spread_ms(phase.latencies(
                           "upsert", "delete", raw=True)),
                       kernel_ms=spread_ms(phase.kernel),
                       stolen_s=stolen)
    return RunResult(metrics, attempted=counts["sent"] + len(probes),
                     failed=counts["failed"] + counts["refused"] + wrong,
                     diagnostics=diagnostics)
