"""HTTP serving latency: p50/p95/p99 and QPS versus shard count.

Starts a real in-process HTTP server (the stdlib asyncio transport of
:mod:`repro.server`) over fleets of increasing shard counts, replays the
same seeded unified-API request workload both closed-loop (fixed client
concurrency) and open-loop (Poisson arrivals at a fixed offered rate), and
records the latency percentiles and throughput of each configuration.

Two invariants ride along as assertions: every fleet shape serves the same
total answer volume, and the wire answers are bit-identical to direct
in-process :meth:`ReplicatedSimilarityService.batch` calls — the tentpole
contract of the unified query API.
"""

from __future__ import annotations

from benchmarks.conftest import SMOKE, run_once
from repro.analysis.reporting import format_table
from repro.datasets.workload import (
    RequestWorkloadConfig,
    generate_open_loop_arrivals,
    generate_request_workload,
)
from repro.serving.service import ReplicatedSimilarityService
from repro.server import (
    InProcessServer,
    ServerConfig,
    SimilarityServerApp,
    run_closed_loop,
    run_open_loop,
)

SHARD_GRID = (1, 2) if SMOKE else (1, 2, 4)
NUM_REQUESTS = 60 if SMOKE else 300
CONCURRENCY = 4
#: Offered load of the open-loop replay, requests/second.
OPEN_LOOP_RATE = 400.0 if SMOKE else 800.0


def _serve_and_replay(num_shards, multisets, requests, arrivals):
    """One fleet shape: start a server, replay both disciplines."""
    service = ReplicatedSimilarityService("ruzicka", num_shards,
                                          replication_factor=1,
                                          cache_capacity=256)
    service.bulk_load(multisets)
    direct = service.batch(requests)
    app = SimilarityServerApp(service, config=ServerConfig())
    with InProcessServer(app) as server:
        closed = run_closed_loop(server.host, server.port, requests,
                                 concurrency=CONCURRENCY)
        open_loop = run_open_loop(server.host, server.port, requests,
                                  arrivals)
        # Wire parity: the served answers are bit-identical to direct calls.
        from repro.server import SimilarityClient

        with SimilarityClient(server.host, server.port) as client:
            parity = all(client.query(request) == response
                         for request, response in
                         zip(requests[:10], direct[:10]))
    direct_matches = sum(len(response) for response in direct)
    return {
        "num_shards": num_shards,
        "wire_parity": parity,
        "direct_total_matches": direct_matches,
        "closed_loop": closed.to_dict(),
        "open_loop": open_loop.to_dict(),
    }


def test_server_latency_vs_shards(benchmark, small_dataset, bench_record):
    multisets = small_dataset.multisets
    requests = generate_request_workload(
        multisets, RequestWorkloadConfig(num_requests=NUM_REQUESTS,
                                         zipf_exponent=1.3, seed=2026))
    arrivals = generate_open_loop_arrivals(NUM_REQUESTS, OPEN_LOOP_RATE,
                                           seed=2026)

    def run():
        return [_serve_and_replay(num_shards, multisets, requests, arrivals)
                for num_shards in SHARD_GRID]

    results = run_once(benchmark, run)
    bench_record["num_requests"] = NUM_REQUESTS
    bench_record["concurrency"] = CONCURRENCY
    bench_record["open_loop_rate_per_second"] = OPEN_LOOP_RATE
    bench_record["fleets"] = results

    rows = []
    for row in results:
        closed = row["closed_loop"]
        open_loop = row["open_loop"]
        rows.append([row["num_shards"],
                     f"{closed['qps']:,.0f}",
                     f"{closed['p50_latency_ms']:.2f}",
                     f"{closed['p95_latency_ms']:.2f}",
                     f"{closed['p99_latency_ms']:.2f}",
                     f"{open_loop['p95_latency_ms']:.2f}",
                     "yes" if row["wire_parity"] else "NO"])
    print()
    print(format_table(
        ["shards", "closed qps", "p50 ms", "p95 ms", "p99 ms",
         "open p95 ms", "wire==direct"],
        rows,
        title=f"HTTP serving latency: {NUM_REQUESTS} unified-API requests "
              f"({CONCURRENCY} closed-loop clients; open loop at "
              f"{OPEN_LOOP_RATE:,.0f} req/s offered)"))

    for row in results:
        # The wire layer answers bit-identically to direct service calls.
        assert row["wire_parity"]
        # Every replay completed every request (no errors, no rejections
        # at these offered loads).
        assert row["closed_loop"]["num_errors"] == 0
        assert row["closed_loop"]["num_requests"] == NUM_REQUESTS
        # Every fleet shape serves the identical answer volume.
        assert row["closed_loop"]["total_matches"] \
            == row["direct_total_matches"]
    volumes = {row["direct_total_matches"] for row in results}
    assert len(volumes) == 1
