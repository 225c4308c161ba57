"""Guards on the serving fan-out: per request once, per shard only the scan.

The read path's rule — what depends on the query alone is derived once per
request, by the outermost layer entered, and handed down as a
:class:`~repro.serving.index.PreparedQuery` — is checked here by counting
function entries with ``sys.setprofile`` (counts repeat exactly, unlike
times) while the wall-clock benchmark's toy ``serve_mixed`` schedule runs:

* the content signature is computed once per request and the scan form once
  per request that has to scan at all, *whatever the number of shards and
  replicas*; a request answered from caches builds no scan form;
* nothing under ``repro.serving`` enters ``measure.unilateral`` (the oracle's
  fold) — both sides of a served score are folded the one stored-side way;
* the call count per query through the workload's own fleet stays under a
  committed ceiling, so a re-derivation slipped back into a per-shard layer
  fails here without any timing;
* rendezvous read spreading canonicalises its ranking key once per request
  and still picks the replica the pre-PreparedQuery formula picked.
"""

from __future__ import annotations

import hashlib
import sys

import pytest

from benchmarks.e2e.inputs import BY_NAME, SIZES, mixed_schedule, served_corpus
from repro import join
from repro.core.multiset import content_signature
from repro.serving import (
    RENDEZVOUS,
    ReplicatedShard,
    ReplicatedSimilarityService,
)
from repro.serving.index import PreparedQuery, SimilarityIndex
from repro.similarity.partials import fold_uni_multiplicities

WORKLOAD = BY_NAME["serve_mixed"]
FLEETS = [(shards, replication) for shards in (1, 4, 8)
          for replication in (1, 2)]

#: Python + builtin calls per query of the toy schedule's batches through
#: the workload's fleet (4 shards, RF 2), ~15 % above the measured 1104.5
#: (CPython 3.11; 2498.2 when every shard re-derived signature, Uni(Q) and
#: effective multiplicities and every posting list bumped a counter — the
#: toy corpus has ~60 elements per multiset, so one more derivation per
#: shard costs hundreds of calls per query).
CALLS_PER_QUERY_CEILING = 1270
#: How often the schedule's tail repeats the last batch.
REPEATS = 3


@pytest.fixture(scope="module")
def corpus():
    return served_corpus(WORKLOAD, 7, SIZES["toy"])


@pytest.fixture
def schedule(corpus):
    """A quarter second of the toy open loop: batches of 8 and writes, in
    order, then the last batch :data:`REPEATS` more times with nothing
    written in between, so that each of two replicas gets it twice and
    answers the second time from its cache."""
    ops = mixed_schedule(WORKLOAD, corpus, 7, SIZES["toy"], 0.25)
    last_batch = [op for op in ops if op.kind == "batch"][-1]
    return ops + [last_batch] * REPEATS


def make_fleet(corpus, shards: int, replication: int, **settings):
    fleet = ReplicatedSimilarityService("ruzicka", shards,
                                        replication_factor=replication,
                                        **settings)
    fleet.bulk_load(corpus)
    return fleet


class Entries:
    """What one profiled stretch entered, counted by ``sys.setprofile``."""

    def __init__(self) -> None:
        self.calls = self.signatures = self.scan_forms = 0
        self.ranking_keys = self.unilateral_from_serving = 0
        #: The prepared requests some index had to scan, by identity (held,
        #: so no identity is handed out twice).
        self.scanned: dict[int, PreparedQuery] = {}

    def __call__(self, frame, event, argument) -> None:
        if event == "c_call":
            self.calls += 1
            if argument is sorted and \
                    frame.f_code is PreparedQuery.ranking_key.fget.__code__:
                self.ranking_keys += 1
        elif event == "call":
            self.calls += 1
            code = frame.f_code
            if code is content_signature.__code__:
                self.signatures += 1
            elif code is SimilarityIndex._gather_candidates.__code__:
                prepared = frame.f_locals["prepared"]
                self.scanned[id(prepared)] = prepared
            elif code is fold_uni_multiplicities.__code__:
                self.scan_forms += (frame.f_back.f_code
                                    is PreparedQuery.scan_form.__code__)
            elif code.co_name == "unilateral":
                caller = frame.f_back.f_globals["__name__"]
                self.unilateral_from_serving += caller.startswith(
                    "repro.serving")

    def during(self, function):
        sys.setprofile(self)
        try:
            return function()
        finally:
            sys.setprofile(None)


def replay(fleet, ops, entries: Entries, *, batched: bool) -> tuple[int, int]:
    """Run ``ops`` in order, reads profiled; returns ``(requests, requests
    that missed the cache of at least one shard)`` — the latter known only
    when the requests are sent singly."""
    requests = missed = 0

    def misses() -> int:
        return sum(replica.node.cache.misses for shard in fleet.shards
                   for replica in shard.replicas)

    for op in ops:
        if op.kind == "upsert":
            fleet.add(op.payload, replace=op.payload.id in fleet)
        elif op.kind == "delete":
            fleet.remove(op.payload)
        elif batched:
            entries.during(lambda: fleet.batch(op.payload))
            requests += len(op.payload)
        else:
            for request in op.payload:
                before = misses()
                entries.during(lambda: fleet.query(request))
                missed += misses() > before
                requests += 1
    return requests, missed


@pytest.mark.parametrize("shards,replication", FLEETS)
def test_one_signature_per_request_one_scan_form_per_scanning_request(
        corpus, schedule, shards, replication):
    single, batched = Entries(), Entries()
    requests, missed = replay(make_fleet(corpus, shards, replication),
                              schedule, single, batched=False)
    assert 0 < missed < requests  # some of the tail came from caches
    assert single.signatures == requests
    assert single.scan_forms == len(single.scanned) == missed
    # The same ops as batches (which replica's cache holds what differs, so
    # which requests scan does too).
    assert replay(make_fleet(corpus, shards, replication), schedule,
                  batched, batched=True) == (requests, 0)
    assert batched.signatures == requests
    assert 0 < batched.scan_forms == len(batched.scanned) < requests
    assert single.unilateral_from_serving == 0
    assert batched.unilateral_from_serving == 0


def test_a_cache_hit_builds_no_scan_form(corpus, schedule):
    fleet = make_fleet(corpus, 4, 2)
    requests = schedule[-1].payload
    fleet.batch(requests)
    fleet.batch(requests)  # both replicas of every shard now hold them
    entries = Entries()
    entries.during(lambda: [fleet.query(request) for request in requests])
    entries.during(lambda: [fleet.cached(request) for request in requests])
    assert entries.signatures == 2 * len(requests)
    assert entries.scan_forms == 0


def test_warming_from_a_join_never_folds_with_unilateral(corpus):
    entries = Entries()
    entries.during(lambda: join(
        corpus[:20], threshold=WORKLOAD.threshold,
        algorithm="online_aggregation").to_service(num_shards=2))
    assert entries.unilateral_from_serving == 0


def test_calls_per_query_through_the_fleet_stay_under_the_ceiling(
        corpus, schedule):
    fleet = make_fleet(corpus, 4, WORKLOAD.replication)
    batches = [op.payload for op in schedule[:-REPEATS] if op.kind == "batch"]
    entries = Entries()
    entries.during(lambda: [fleet.batch(batch) for batch in batches])
    queries = sum(len(batch) for batch in batches)
    assert entries.calls / queries <= CALLS_PER_QUERY_CEILING


# -- rendezvous: one ranking key per request, the parent's replica ---------------


def replica_by_the_old_formula(request, replicas):
    """What ``_read_candidates`` computed per shard before requests were
    prepared: rank by ``stable_hash((signature, name), salt)``, spelled out."""
    signature = sorted(map(repr, frozenset(request.query.items())))

    def rank(replica) -> int:
        rendered = f"resilience-replica|{(signature, replica.name)!r}"
        return int.from_bytes(hashlib.blake2b(
            rendered.encode("utf-8"), digest_size=8).digest(), "big")

    return max(replicas, key=rank)


def test_rendezvous_picks_the_replica_the_old_formula_picked(corpus):
    requests = [request
                for op in mixed_schedule(WORKLOAD, corpus, 7, SIZES["toy"], 0.5)
                if op.kind == "batch" for request in op.payload][:200]
    assert len(requests) == 200
    shard = ReplicatedShard("ruzicka", 3, read_strategy=RENDEZVOUS,
                            name="shard2")
    shard.bulk_load(corpus)
    chosen = set()
    for request in requests:
        expected = replica_by_the_old_formula(request, shard.replicas)
        assert shard._read_candidates(request)[0] is expected
        served = expected.reads_served
        shard.query(request)
        assert expected.reads_served == served + 1
        chosen.add(expected.name)
    assert len(chosen) == 3  # the pin is not vacuous: reads do spread


def test_rendezvous_canonicalises_the_ranking_key_once_per_request(
        corpus, schedule):
    fleet = make_fleet(corpus, 4, 2, read_strategy=RENDEZVOUS)
    entries = Entries()
    requests, _ = replay(fleet, schedule, entries, batched=False)
    # A batch is routed by its first request only.
    batches = sum(op.kind == "batch" for op in schedule)
    replay(make_fleet(corpus, 4, 2, read_strategy=RENDEZVOUS), schedule,
           entries, batched=True)
    assert entries.ranking_keys == requests + batches
