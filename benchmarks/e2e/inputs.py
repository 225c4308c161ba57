"""Seeded inputs of the four workloads.

``--seed`` drives the corpus, the request stream and the arrival schedule;
the program under test sees only what is generated here.  Every corpus is
trimmed to a fixed number of input tuples so that two seeds give two corpora
of the same size: the generator's Zipf tails otherwise move the tuple count
(and with it the join time and the index scan) by +-12 % from seed to seed,
which would drown the regressions the benchmark exists to catch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro import Multiset
from repro.datasets.ip_cookie import (
    generate_ip_cookie_dataset,
    realistic_dataset_config,
    small_dataset_config,
)
from repro.datasets.workload import (
    RequestWorkloadConfig,
    generate_open_loop_arrivals,
    generate_request_workload,
)
from repro.serving.api import QueryRequest

from benchmarks.e2e.loadgen import Op

#: Queries per ``POST /query/batch`` of the mixed workload.
BATCH_SIZE = 8
#: Share of the mixed workload's operations that are writes.
WRITE_SHARE = 0.3
#: Zipf streams interleaved into the point workload's request stream.
POPULARITY_STREAMS = 8


@dataclass(frozen=True)
class Workload:
    """One named set of inputs and the system configuration it runs on."""

    name: str
    why: str
    #: ``"join"``, ``"point"`` (closed-loop reads) or ``"mixed"`` (open loop).
    kind: str
    #: Join threshold, and the threshold of the workload's threshold queries.
    threshold: float
    #: The joining algorithm the main join pins.
    pinned: str
    #: Replicas per shard of the served fleet.
    replication: int


WORKLOADS = (
    Workload("join_scan",
             "sparse Zipf corpus, few candidates: the per-tuple path (scan, "
             "interning, Sharding jobs, runner overhead) is largest; auto "
             "plans Lookup",
             "join", 0.5, "sharding", 1),
    Workload("join_dense",
             "planted proxy groups, candidates ~4x input: Similarity1/2, pair "
             "codec and result materialisation dominate; auto plans VCL",
             "join", 0.4, "online_aggregation", 1),
    Workload("serve_point",
             "closed loop, 1 client, single /query, Zipf repeats hit the "
             "result cache: HTTP, admission, queue hop and JSON codec do the "
             "work; set-up is storage recovery",
             "point", 0.5, "sharding", 1),
    Workload("serve_mixed",
             "open loop, batches of 8 perturbed queries plus 30 % writes on an "
             "RF-2 fleet: cache is voided, so index scan, shard fan-out and "
             "replica write fan-in dominate",
             "mixed", 0.3, "sharding", 2),
)
BY_NAME = {workload.name: workload for workload in WORKLOADS}


@dataclass(frozen=True)
class Sizes:
    """How much work one run does; everything else is the same code."""

    name: str
    #: Fresh set-ups per run; ``setup_s`` is their median.
    setups: int
    #: Join corpora: IPs generated, then trimmed to this many input tuples.
    scan_ips: int
    scan_tuples: int
    dense_ips: int
    dense_groups: int
    dense_tuples: int
    #: Served corpora: IPs generated, then trimmed to this many tuples.
    point_ips: int
    point_tuples: int
    mixed_ips: int
    mixed_tuples: int
    #: Offered load of the open loop, operations per reference second.
    mixed_rate: float
    #: Fewest repeats of a join pair, whatever ``--seconds`` says.
    min_repeats: int
    #: Requests sent before a server counts as ready.
    warmup_requests: int
    #: Pre-generated single requests (the closed loop stops at the deadline).
    point_requests: int
    #: Requests per in-process rung of the traced layer ladder.
    ladder_requests: int
    #: Probe requests of the post-quiesce oracle check.
    probes: int


FULL = Sizes(name="full", setups=3, scan_ips=640, scan_tuples=8_000,
             dense_ips=300, dense_groups=8, dense_tuples=6_500,
             point_ips=2_300, point_tuples=36_000,
             mixed_ips=1_150, mixed_tuples=17_000, mixed_rate=100.0,
             min_repeats=11, warmup_requests=1_500, point_requests=60_000,
             ladder_requests=1_000, probes=64)
#: The tier-1 smoke test: same code paths, a few hundred tuples.
TOY = Sizes(name="toy", setups=1, scan_ips=60, scan_tuples=500,
            dense_ips=40, dense_groups=2, dense_tuples=500,
            point_ips=60, point_tuples=700, mixed_ips=60, mixed_tuples=700,
            mixed_rate=100.0, min_repeats=1, warmup_requests=10,
            point_requests=400, ladder_requests=30, probes=8)
SIZES = {sizes.name: sizes for sizes in (FULL, TOY)}


def _trim_to_tuples(multisets: list[Multiset], tuples: int) -> list[Multiset]:
    """The shortest prefix holding at least ``tuples`` input tuples."""
    total = 0
    for count, multiset in enumerate(multisets, start=1):
        total += len(multiset)
        if total >= tuples:
            return multisets[:count]
    return multisets


def join_corpus(workload: Workload, seed: int, sizes: Sizes) -> list[Multiset]:
    """The corpus a join workload joins (planted groups come first)."""
    if workload.name == "join_dense":
        # The paper's proxy-detection shape: groups of 15 IPs behind one
        # load balancer sharing a 40-cookie pool.
        config = replace(small_dataset_config(seed),
                         num_ips=sizes.dense_ips,
                         num_cookies=sizes.dense_ips * 15 // 4,
                         num_proxy_groups=sizes.dense_groups,
                         ips_per_proxy_group=15, cookies_per_proxy_pool=40)
        tuples = sizes.dense_tuples
    else:
        config = replace(realistic_dataset_config(seed),
                         num_ips=sizes.scan_ips,
                         num_cookies=sizes.scan_ips * 6,
                         num_proxy_groups=max(1, sizes.scan_ips // 80))
        tuples = sizes.scan_tuples
    return _trim_to_tuples(generate_ip_cookie_dataset(config).multisets, tuples)


def ladder_join_corpus(corpus: list[Multiset], sizes: Sizes) -> list[Multiset]:
    """A join-sized prefix of a served corpus, for the traced batch layers."""
    return _trim_to_tuples(corpus, sizes.scan_tuples)


def served_corpus(workload: Workload, seed: int, sizes: Sizes) -> list[Multiset]:
    """The corpus a serving workload serves: the realistic preset, scaled
    and trimmed."""
    ips, tuples = ((sizes.mixed_ips, sizes.mixed_tuples)
                   if workload.kind == "mixed" else
                   (sizes.point_ips, sizes.point_tuples))
    config = replace(realistic_dataset_config(seed), num_ips=ips,
                     num_cookies=ips * 6,
                     num_proxy_groups=max(1, ips // 80))
    return _trim_to_tuples(generate_ip_cookie_dataset(config).multisets, tuples)


def request_stream(workload: Workload, corpus: list[Multiset], seed: int,
                   count: int) -> list[QueryRequest]:
    """The workload's stream of single requests.

    ``mixed`` draws perturbed, almost uniformly popular threshold queries
    (nothing repeats, so the result cache cannot help).  Every other
    workload replays members, 70 % threshold / 30 % top-10, so most
    requests repeat an earlier one: :data:`POPULARITY_STREAMS` streams of
    Zipf-1.2 popularity, each with its own ranking of the members, are
    interleaved.  (One ranking alone gives its top member 22 % of all
    requests; the share of requests that carry a large multiset, and with
    it the median latency, then follows the sizes of a handful of members
    from seed to seed.)
    """
    if workload.kind == "mixed":
        return generate_request_workload(corpus, RequestWorkloadConfig(
            num_requests=count, threshold_fraction=1.0,
            threshold=workload.threshold, zipf_exponent=0.3,
            perturbation_probability=1.0, seed=seed))
    share = -(-count // POPULARITY_STREAMS)
    streams = [generate_request_workload(corpus, RequestWorkloadConfig(
        num_requests=share, threshold_fraction=0.7,
        threshold=workload.threshold, k=10, zipf_exponent=1.2,
        seed=seed * POPULARITY_STREAMS + stream))
        for stream in range(POPULARITY_STREAMS)]
    merged = [request for group in zip(*streams) for request in group][:count]
    # Each stream numbers its queries from zero; number the merged ones.
    return [QueryRequest(request.query.with_id(f"q{position:06d}"),
                         request.options)
            for position, request in enumerate(merged)]


def perturbed(multiset: Multiset, rng: random.Random) -> Multiset:
    """A drifted copy under the same id: one element dropped, one bumped."""
    counts = multiset.counts()
    if len(counts) > 1:
        del counts[rng.choice(list(counts))]
    counts[rng.choice(list(counts))] += 1
    return Multiset(multiset.id, counts)


def write_stream(corpus: list[Multiset], seed: int, count: int) -> list[Op]:
    """``count`` writes: 75 % upserts of perturbed members, the rest deletes
    each followed, some writes later, by a re-upsert of the deleted id."""
    rng = random.Random(seed)
    live = {multiset.id: multiset for multiset in corpus}
    awaiting: list[Multiset] = []
    writes: list[Op] = []
    while len(writes) < count:
        if awaiting and rng.random() < 0.5:
            restored = perturbed(awaiting.pop(0), rng)
            live[restored.id] = restored
            writes.append(Op("upsert", restored))
        elif rng.random() < 0.25 and len(live) > 1:
            target = live.pop(rng.choice(list(live)))
            awaiting.append(target)
            writes.append(Op("delete", target.id))
        else:
            changed = perturbed(live[rng.choice(list(live))], rng)
            live[changed.id] = changed
            writes.append(Op("upsert", changed))
    return writes


def mixed_schedule(workload: Workload, corpus: list[Multiset], seed: int,
                   sizes: Sizes, seconds: float) -> list[Op]:
    """The open loop's seeded Poisson schedule of batches and writes."""
    count = max(2, int(sizes.mixed_rate * seconds))
    arrivals = generate_open_loop_arrivals(count, sizes.mixed_rate, seed=seed)
    rng = random.Random(seed + 1)
    is_write = [rng.random() < WRITE_SHARE for _ in arrivals]
    writes = iter(write_stream(corpus, seed + 2, sum(is_write)))
    requests = request_stream(workload, corpus, seed + 3,
                              BATCH_SIZE * (count - sum(is_write)))
    schedule = []
    for due, write in zip(arrivals, is_write):
        if write:
            op = next(writes)
        else:
            op = Op("batch", [requests.pop() for _ in range(BATCH_SIZE)])
        op.due = due
        schedule.append(op)
    return schedule


def probe_requests(workload: Workload, corpus: list[Multiset], seed: int,
                   count: int) -> list[QueryRequest]:
    """Fixed probes (threshold and top-10 over members) for the oracle check."""
    rng = random.Random(seed)
    members = rng.sample(corpus, min(count, len(corpus)))
    return [QueryRequest.topk(member.with_id(f"probe{position}"), 10)
            if position % 3 == 2 else
            QueryRequest.threshold(member.with_id(f"probe{position}"),
                                   workload.threshold)
            for position, member in enumerate(members)]
