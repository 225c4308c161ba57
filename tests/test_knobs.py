"""One knob rule at every front door (:mod:`repro.core.knobs`).

* the module imports nothing from the package: every tier imports it;
* one fuzzer holds every public constructor that takes a count, flag or
  real knob, plus ``repro.join``: each knob in turn is drawn from a hostile
  pool, and so is a random handful of its siblings.  The call either
  succeeds or raises a :class:`~repro.core.exceptions.ReproError` of its
  tier.  The one listed exception is ``validate_threshold``'s documented
  ``ValueError`` (a real threshold outside ``(0, 1]`` given to
  :class:`~repro.engine.spec.JoinSpec`).  A join, and a threshold query of a
  :class:`~repro.serving.index.SimilarityIndex` or
  :class:`~repro.serving.node.ServingNode`, that succeeds must answer what
  the quadratic oracle answers: a misread knob may never change a pair.

The pool holds no large count, and the timed knobs are only constructed,
never run, so no draw makes a call sleep or allocate much.  Every cell of
the pool is an explicit example for every knob; among them are the
repros the rule fixed (``SimilarityIndex(stop_word_frequency=True)``
emptied answers, ``CircuitBreaker(failure_threshold=2.5)`` ran as 2,
``RetryPolicy(deadline_seconds=nan)`` never fired,
``ServerConfig(query_max_batch=True)`` was accepted, and ``"3"`` / ``[]``
raised raw ``TypeError`` at several doors).
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, note
from hypothesis import strategies as st

import repro
from repro import JoinSpec, join
from repro.core.exceptions import ReproError
from repro.core.multiset import Multiset
from repro.core.records import canonical_pair
from repro.mapreduce.backends import get_backend
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.shuffle import ExternalGrouper
from repro.resilience import CircuitBreaker, FaultPolicy, RetryPolicy
from repro.server.app import ServerConfig, SimilarityServerApp
from repro.server.queues import CoalescingQueue
from repro.serving import (
    LRUResultCache,
    ReplicatedShard,
    ReplicatedSimilarityService,
    ServingNode,
    SimilarityIndex,
    bootstrap_from_join,
)
from repro.serving.api import QueryOptions, QueryRequest
from repro.streaming.changes import Change, ChangeBatch
from tests.conftest import assert_matches_oracle

#: Every hostile value a knob is drawn from.
POOL = (TRUE, REAL, TEXT, NONE, NAN, INF, NEGATIVE, ZERO, EMPTY) = (
    True, 2.5, "3", None, math.nan, math.inf, -1, 0, [])
#: Drawn for a sibling knob: leave it at its default.
DEFAULT = object()

#: Two equal multisets (a pair at 1.0 sharing every element) and a third
#: sharing one element with both.
CORPUS = [Multiset("a", {"x": 1, "y": 1}), Multiset("b", {"x": 1, "y": 1}),
          Multiset("c", {"x": 1, "z": 2})]
MEASURE = "ruzicka"


def test_module_imports_nothing_from_the_package():
    """Every tier checks its knobs through it, so it may import none of
    them; bare ``repro`` and ``repro.core`` namespaces are mounted first."""
    script = (
        "import sys, types\n"
        "for name, path in (('repro', sys.argv[1]),\n"
        "                   ('repro.core', sys.argv[1] + '/core')):\n"
        "    package = types.ModuleType(name)\n"
        "    package.__path__ = [path]\n"
        "    sys.modules[name] = package\n"
        "import repro.core.knobs\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.startswith('repro.')))\n")
    loaded = subprocess.run([sys.executable, "-c", script,
                             os.path.dirname(repro.__file__)],
                            check=True, capture_output=True, text=True).stdout
    assert loaded.strip() == "['repro.core', 'repro.core.knobs']"


def joined_pairs(measure=MEASURE, **knobs) -> None:
    result = join(CORPUS, measure=measure, **knobs)
    assert_matches_oracle(result.pairs, CORPUS, measure, result.spec.threshold)


def index_neighbours(threshold=0.5, **knobs) -> None:
    index = SimilarityIndex(MEASURE, **knobs)
    index.bulk_load(CORPUS)
    assert_matches_oracle(
        {canonical_pair(member.id, match.multiset_id): match.similarity
         for member in CORPUS
         for match in index.neighbours(member.id, threshold)},
        CORPUS, MEASURE, threshold)


def node_queries(threshold=0.5, **knobs) -> None:
    node = ServingNode(MEASURE, **knobs)
    node.bulk_load(CORPUS)
    requests = [QueryRequest.threshold(member, threshold) for member in CORPUS]
    assert_matches_oracle(
        {canonical_pair(member.id, match.multiset_id): match.similarity
         for member, response in zip(CORPUS, node.batch(requests))
         for match in response.matches if match.multiset_id != member.id},
        CORPUS, MEASURE, threshold)


def bootstrapped(**knobs) -> None:
    bootstrap_from_join(CORPUS, JOINED, **knobs)


def grouper(memory_budget_bytes=4096, **knobs) -> None:
    ExternalGrouper(memory_budget_bytes, **knobs).close()


class Door(NamedTuple):
    """A front door, and for each knob it takes the pool values it must
    accept (every other draw it must refuse)."""

    call: Callable[..., object]
    knobs: dict[str, tuple]


JOIN_KNOBS = {"threshold": (), "sharding_threshold": (),
              "stop_word_frequency": (NONE,), "chunk_size": (NONE,),
              "use_combiners": (TRUE,), "prune_candidates": (TRUE,),
              "vcl_super_element_groups": (NONE,)}
JOINED = join(CORPUS, measure=MEASURE, threshold=0.5, algorithm="exact")

DOORS = {
    # A measure name resolves when the join runs, so any string constructs.
    "JoinSpec": Door(JoinSpec, {**JOIN_KNOBS, "enforce_budgets": (NONE, TRUE),
                                "algorithm": (), "vcl_element_order": (),
                                "measure": (TEXT,)}),
    "join": Door(joined_pairs, {**JOIN_KNOBS, "enforce_budgets": (TRUE,),
                                "measure": ()}),
    "Cluster": Door(Cluster, {"num_machines": (), "memory_per_machine": (),
                              "disk_per_machine": (),
                              "scheduler_limit_seconds": (REAL, INF)}),
    "get_backend": Door(lambda **knobs: get_backend("disk", **knobs),
                        {"memory_budget_bytes": (), "merge_fan_in": ()}),
    "ExternalGrouper": Door(grouper, {"memory_budget_bytes": (),
                                      "merge_fan_in": ()}),
    "QueryRequest.threshold": Door(
        lambda threshold: QueryRequest.threshold(CORPUS[0], threshold),
        {"threshold": ()}),
    "QueryRequest.topk": Door(lambda k: QueryRequest.topk(CORPUS[0], k),
                              {"k": ()}),
    "QueryOptions.from_json_dict": Door(
        lambda **knobs: QueryOptions.from_json_dict(
            {"kind": "threshold", "threshold": 0.5, **knobs}),
        {"kind": (), "threshold": (), "k": (NONE,)}),
    "SimilarityIndex": Door(index_neighbours, {"stop_word_frequency": (NONE,),
                                               "threshold": ()}),
    "ServingNode": Door(node_queries, {"cache_capacity": (ZERO,),
                                       "stop_word_frequency": (NONE,),
                                       "threshold": ()}),
    "LRUResultCache": Door(LRUResultCache, {"capacity": (ZERO,)}),
    "ReplicatedShard": Door(ReplicatedShard, {
        "replication_factor": (), "cache_capacity": (ZERO,),
        "stop_word_frequency": (NONE,)}),
    "ReplicatedSimilarityService": Door(ReplicatedSimilarityService, {
        "num_shards": (), "replication_factor": (), "cache_capacity": (ZERO,),
        "stop_word_frequency": (NONE,)}),
    "bootstrap_from_join": Door(bootstrapped, {
        "threshold": (NONE,), "num_shards": (), "cache_capacity": (NONE,),
        "stop_word_frequency": (NONE,)}),
    "Change.delete": Door(Change.delete, {
        "multiset_id": (TRUE, REAL, TEXT, NAN, INF, NEGATIVE, ZERO)}),
    "ChangeBatch": Door(ChangeBatch, {"changes": (EMPTY,)}),
    "FaultPolicy": Door(FaultPolicy, {
        "seed": (NEGATIVE, ZERO), "latency_seconds": (REAL, ZERO),
        "latency_probability": (ZERO,), "error_probability": (ZERO,),
        "timeout_probability": (ZERO,), "crash_after_calls": (NONE, ZERO)}),
    "RetryPolicy": Door(RetryPolicy, {
        "max_attempts": (), "base_backoff_seconds": (REAL, ZERO),
        "backoff_multiplier": (REAL,), "max_backoff_seconds": (REAL, ZERO),
        "jitter": (ZERO,), "deadline_seconds": (NONE, REAL),
        "seed": (NONE, NEGATIVE, ZERO)}),
    "CircuitBreaker": Door(CircuitBreaker, {
        "failure_threshold": (), "reset_timeout_seconds": (REAL,),
        "half_open_max_probes": ()}),
    "ServerConfig": Door(ServerConfig, {
        "query_queue_capacity": (), "query_max_batch": (),
        "write_queue_capacity": (), "write_max_batch": (),
        "retry_after_seconds": (REAL,), "request_timeout_seconds": (NONE, REAL),
        "brownout_queue_depth": (NONE,), "brownout_topk_cap": (),
        "brownout_threshold_floor": (NONE,),
        "health_check_interval_seconds": (NONE, REAL)}),
    "CoalescingQueue": Door(
        lambda **knobs: CoalescingQueue("queries", list, **knobs),
        {"capacity": (), "max_batch": (),
         "retry_after_seconds": (REAL, NEGATIVE, ZERO)}),
    "admin replica address": Door(
        lambda **knobs: SimilarityServerApp._replica_address(
            {"shard": 0, "replica": 0, **knobs}),
        {"shard": (ZERO,), "replica": (ZERO,)}),
}


@pytest.mark.parametrize("door", DOORS)
@given(value=st.sampled_from(POOL),
       siblings=st.lists(st.sampled_from(POOL + (DEFAULT,)), max_size=10))
@example(value=TRUE, siblings=[])
@example(value=REAL, siblings=[])
@example(value=TEXT, siblings=[])
@example(value=NONE, siblings=[])
@example(value=NAN, siblings=[])
@example(value=INF, siblings=[])
@example(value=NEGATIVE, siblings=[])
@example(value=ZERO, siblings=[])
@example(value=EMPTY, siblings=[])
def test_a_hostile_knob_is_refused_by_its_tier_or_answers_exactly(
        door, value, siblings):
    """Each knob of ``door`` in turn is ``value``; ``siblings[i]`` is drawn
    for its i-th other knob.  The call succeeds exactly when every drawn
    value is one the door must accept."""
    entry = DOORS[door]
    for knob in entry.knobs:
        others = [name for name in entry.knobs if name != knob]
        knobs = {name: drawn for name, drawn in zip(others, siblings)
                 if drawn is not DEFAULT}
        knobs[knob] = value
        legal = all(any(drawn is allowed for allowed in entry.knobs[name])
                    for name, drawn in knobs.items())
        note(f"{door}(**{knobs!r}), legal={legal}")
        try:
            entry.call(**knobs)
        except ReproError:
            assert not legal
        except ValueError as error:  # validate_threshold's, and only JoinSpec's
            assert not legal and door in ("JoinSpec", "join")
            assert "threshold" in knobs
            assert str(error).startswith(
                "similarity threshold must be in (0, 1]")
        else:
            assert legal


def test_a_fleet_keeps_its_node_knobs_as_plain_values():
    """3.18 read a NumPy count back as ``numpy.int64``."""
    service = ReplicatedSimilarityService(
        MEASURE, 2, cache_capacity=np.int64(8), stop_word_frequency=np.int64(3))
    for owner in (service, *service.shards):
        knobs = (owner.cache_capacity, owner.stop_word_frequency)
        assert [(type(knob), knob) for knob in knobs] == [(int, 8), (int, 3)]
