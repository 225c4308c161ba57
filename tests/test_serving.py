"""Tests for the online similarity-serving subsystem (repro.serving)."""

from __future__ import annotations

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.exceptions import DatasetError, ServingError
from repro.core.multiset import Multiset, content_signature
from repro.core.records import InputTuple, canonical_pair, explode_multisets
from repro.datasets.workload import (
    QueryWorkloadConfig,
    generate_query_workload,
)
from repro.mapreduce.cluster import laptop_cluster
from repro.mapreduce.dfs import Dataset
from repro.serving.api import QueryRequest
from repro.serving.bootstrap import bootstrap_from_join, multisets_from_input
from repro.serving.cache import LRUResultCache
from repro.serving.index import (
    QueryMatch,
    SimilarityIndex,
    prepare,
    sort_matches,
)
from repro.serving.node import ServingNode
from repro.serving.service import shard_for
from repro.similarity.registry import get_measure, list_measures
from repro.telemetry import read
from repro.engine.engine import join
from tests.conftest import (
    SOURCE_ROOT,
    SPILLING_DISK,
    make_random_multisets,
    unreplicated_fleet,
)


def threshold_matches(target, query: Multiset, threshold: float) -> list:
    """Unified-API threshold query, unwrapped to the old list-of-matches."""
    return list(target.query(QueryRequest.threshold(query, threshold)).matches)


def topk_matches(target, query: Multiset, k: int) -> list:
    """Unified-API top-k query, unwrapped to the old list-of-matches."""
    return list(target.query(QueryRequest.topk(query, k)).matches)


def index_pair_dictionary(index: SimilarityIndex, threshold: float) -> dict:
    """All similar pairs the index finds by querying every member."""
    pairs: dict = {}
    for multiset_id in list(index.ids()):
        for match in index.neighbours(multiset_id, threshold):
            pairs[canonical_pair(multiset_id, match.multiset_id)] = match.similarity
    return pairs


class TestSimilarityIndexBasics:
    def test_add_remove_and_containment(self, overlapping_multisets):
        index = SimilarityIndex("ruzicka")
        assert index.bulk_load(overlapping_multisets) == 5
        assert len(index) == 5
        assert "a" in index and "nope" not in index
        assert index.get("a") == overlapping_multisets[0]
        index.remove("a")
        assert "a" not in index and len(index) == 4

    def test_duplicate_add_rejected_unless_replace(self):
        index = SimilarityIndex("ruzicka")
        index.add(Multiset("m", {"x": 1}))
        with pytest.raises(ServingError):
            index.add(Multiset("m", {"y": 2}))
        index.add(Multiset("m", {"y": 2}), replace=True)
        assert index.get("m").multiplicity("y") == 2
        assert index.get("m").multiplicity("x") == 0

    def test_remove_unknown_rejected(self):
        with pytest.raises(ServingError):
            SimilarityIndex("ruzicka").remove("ghost")

    def test_uni_of_unknown_rejected(self):
        with pytest.raises(ServingError):
            SimilarityIndex("ruzicka").uni("ghost")

    def test_version_bumps_on_writes(self):
        index = SimilarityIndex("ruzicka")
        assert index.version == 0
        index.add(Multiset("m", {"x": 1}))
        assert index.version == 1
        index.remove("m")
        assert index.version == 2

    def test_postings_are_retracted_on_remove(self, overlapping_multisets):
        index = SimilarityIndex("ruzicka")
        index.bulk_load(overlapping_multisets)
        before = index.num_postings
        index.remove("a")
        assert index.num_postings < before
        for multiset in overlapping_multisets[1:]:
            index.remove(multiset.id)
        assert index.num_postings == 0

    def test_disjunctive_measure_rejected(self):
        with pytest.raises(Exception):
            SimilarityIndex("direct_ruzicka")

    def test_invalid_stop_word_frequency_rejected(self):
        with pytest.raises(ServingError):
            SimilarityIndex("ruzicka", stop_word_frequency=0)

    def test_uni_matches_measure_unilateral(self, small_multisets):
        for name in ("ruzicka", "jaccard", "vector_cosine"):
            measure = get_measure(name)
            index = SimilarityIndex(name)
            index.bulk_load(small_multisets)
            for multiset in small_multisets:
                assert index.uni(multiset.id) == pytest.approx(
                    measure.unilateral(multiset))


class TestThresholdMatchesBatchJoin:
    """Acceptance: index threshold queries == the batch join on the same data."""

    @pytest.mark.parametrize("name", list_measures(supported_only=True))
    @pytest.mark.parametrize("threshold", [0.3, 0.7])
    def test_every_measure_agrees_with_batch_join(self, name, threshold):
        multisets = make_random_multisets(12, alphabet_size=15, max_elements=8,
                                          seed=42)
        expected = {pair.pair: pair.similarity
                    for pair in join(multisets, measure=name,
                                     threshold=threshold,
                                     algorithm="online_aggregation",
                                     cluster=laptop_cluster(num_machines=3))}
        index = SimilarityIndex(name)
        index.bulk_load(multisets)
        found = index_pair_dictionary(index, threshold)
        assert set(found) == set(expected)
        for pair, similarity in found.items():
            assert similarity == pytest.approx(expected[pair])

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([0.2, 0.5, 0.8]),
           st.sampled_from(list_measures(supported_only=True)))
    def test_generated_datasets_agree_with_batch_join(self, seed, threshold,
                                                      name):
        multisets = make_random_multisets(10, alphabet_size=12, max_elements=6,
                                          seed=seed)
        expected = {pair.pair: pair.similarity
                    for pair in join(multisets, measure=name,
                                     threshold=threshold,
                                     algorithm="online_aggregation",
                                     cluster=laptop_cluster(num_machines=3))}
        index = SimilarityIndex(name)
        index.bulk_load(multisets)
        found = index_pair_dictionary(index, threshold)
        assert set(found) == set(expected)
        for pair, similarity in found.items():
            assert similarity == pytest.approx(expected[pair])


class TestTopK:
    def test_topk_consistent_with_exact_scores(self, small_multisets):
        for name in ("ruzicka", "jaccard", "vector_cosine"):
            measure = get_measure(name)
            index = SimilarityIndex(name)
            index.bulk_load(small_multisets)
            query = small_multisets[0]
            for k in (1, 3, 10):
                matches = topk_matches(index, query, k)
                assert len(matches) <= k
                exact = sorted((measure.similarity(query, member)
                                for member in small_multisets), reverse=True)
                returned = [match.similarity for match in matches]
                assert returned == sorted(returned, reverse=True)
                for position, similarity in enumerate(returned):
                    assert similarity == pytest.approx(exact[position])

    def test_topk_scores_are_exact(self, small_multisets):
        measure = get_measure("ruzicka")
        index = SimilarityIndex("ruzicka")
        index.bulk_load(small_multisets)
        query = small_multisets[3]
        for match in topk_matches(index, query, 5):
            member = index.get(match.multiset_id)
            assert match.similarity == pytest.approx(
                measure.similarity(query, member))

    def test_topk_larger_than_candidates(self):
        index = SimilarityIndex("ruzicka")
        index.add(Multiset("m", {"x": 1}))
        matches = topk_matches(index, Multiset("q", {"x": 1, "y": 2}), 10)
        assert [match.multiset_id for match in matches] == ["m"]

    def test_topk_invalid_k_rejected(self):
        with pytest.raises(ServingError):
            topk_matches(SimilarityIndex("ruzicka"), Multiset("q", {"x": 1}), 0)

    def test_topk_early_termination_fires(self, small_multisets):
        index = SimilarityIndex("ruzicka")
        index.bulk_load(small_multisets)
        for query in small_multisets:
            topk_matches(index, query, 1)
        assert index.counters().get("serving/topk_early_terminations", 0) > 0


class TestUpperBoundPruning:
    @pytest.mark.parametrize("name", list_measures(supported_only=True))
    def test_upper_bound_dominates_similarity(self, name, small_multisets):
        measure = get_measure(name)
        for first in small_multisets[:10]:
            for second in small_multisets[10:20]:
                bound = measure.similarity_upper_bound(
                    measure.unilateral(first), measure.unilateral(second))
                assert bound >= measure.similarity(first, second) - 1e-9

    def test_vector_cosine_exact_at_threshold_one(self):
        # Parallel vectors have similarity exactly 1.0; a sqrt-based upper
        # bound can round one ulp below 1.0 and wrongly prune them.
        index = SimilarityIndex("vector_cosine")
        index.add(Multiset("y", {"e": 3 * 94906267}))
        query = Multiset("x", {"e": 94906267})
        matches = threshold_matches(index, query, 1.0)
        assert [match.multiset_id for match in matches] == ["y"]
        assert matches[0].similarity == pytest.approx(1.0)

    def test_threshold_queries_count_pruned_candidates(self, small_multisets):
        index = SimilarityIndex("ruzicka")
        index.bulk_load(small_multisets)
        for query in small_multisets:
            threshold_matches(index, query, 0.9)
        counters = index.counters()
        assert counters.get("serving/candidates_pruned", 0) > 0
        assert counters["serving/threshold_queries"] == len(small_multisets)


class TestStopWordPruning:
    def test_hot_postings_are_skipped(self):
        members = [Multiset(f"m{i}", {"hot": 1, f"rare{i}": 2})
                   for i in range(10)]
        exact = SimilarityIndex("ruzicka")
        exact.bulk_load(members)
        pruned = SimilarityIndex("ruzicka", stop_word_frequency=5)
        pruned.bulk_load(members)
        query = Multiset("q", {"hot": 1, "rare0": 2})
        exact_ids = {match.multiset_id
                     for match in threshold_matches(exact, query, 0.2)}
        pruned_ids = {match.multiset_id
                      for match in threshold_matches(pruned, query, 0.2)}
        # The hot element is the only link to m1..m9, so pruning drops them.
        assert pruned_ids == {"m0"}
        assert pruned_ids < exact_ids
        assert pruned.counters()["serving/stop_words_skipped"] == 1

    def test_generous_limit_stays_exact(self, small_multisets):
        exact = SimilarityIndex("ruzicka")
        exact.bulk_load(small_multisets)
        generous = SimilarityIndex("ruzicka",
                                   stop_word_frequency=len(small_multisets))
        generous.bulk_load(small_multisets)
        for query in small_multisets[:5]:
            assert (threshold_matches(generous, query, 0.3)
                    == threshold_matches(exact, query, 0.3))


class GenericRuzicka(type(get_measure("ruzicka"))):
    """Ruzicka without its scalar kernels: the index's generic scan."""

    name = "generic_ruzicka_test_measure"
    conj_kernel = uni_kernel = "generic"


class TestScanCountersFromFirstPrinciples:
    """The ``serving/*`` counters, recomputed from the members alone."""

    @staticmethod
    def expected(members, requests, measure, frequency_limit) -> dict:
        """What the scans must count, by the counters' definitions."""
        holders: dict = {}
        for member in members:
            for element in member:
                holders.setdefault(element, set()).add(member.id)
        uni = {member.id: measure.unilateral(member) for member in members}
        totals = dict.fromkeys(("postings_scanned", "stop_words_skipped",
                                "candidates_examined", "candidates_pruned",
                                "scored"), 0)
        for request in requests:
            examined: set = set()
            for element in request.query:
                frequency = len(holders.get(element, ()))
                if frequency_limit is not None and frequency > frequency_limit:
                    totals["stop_words_skipped"] += 1
                else:
                    totals["postings_scanned"] += frequency
                    examined |= holders.get(element, set())
            threshold = request.options.threshold  # None for top-k: no pruning
            pruned = {multiset_id for multiset_id in examined
                      if threshold is not None
                      and measure.similarity_upper_bound(
                          measure.unilateral(request.query),
                          uni[multiset_id]) < threshold}
            totals["candidates_examined"] += len(examined)
            totals["candidates_pruned"] += len(pruned)
            totals["scored"] += len(examined) - len(pruned)
        return totals

    @pytest.mark.parametrize("frequency_limit", [None, 4])
    @pytest.mark.parametrize("measure", ["ruzicka", "jaccard",
                                         GenericRuzicka()], ids=str)
    def test_threshold_and_topk_streams(self, measure, frequency_limit):
        members = make_random_multisets(count=40, alphabet_size=30,
                                        max_elements=8, seed=11)
        queries = make_random_multisets(count=60, alphabet_size=34,
                                        max_elements=8, seed=12)
        index, probe = (SimilarityIndex(measure,
                                        stop_word_frequency=frequency_limit)
                        for _ in range(2))
        index.bulk_load(members)
        probe.bulk_load(members)
        streams = {
            "threshold": [QueryRequest.threshold(query, 0.15 + 0.01 * position)
                          for position, query in enumerate(queries)],
            "topk": [QueryRequest.topk(query, 1 + position % 5)
                     for position, query in enumerate(queries)]}
        counted = dict.fromkeys(("postings_scanned", "stop_words_skipped",
                                 "candidates_examined", "candidates_pruned"), 0)
        for kind, requests in streams.items():
            expected = self.expected(members, requests, index.measure,
                                     frequency_limit)
            # pruned + scored == examined: what a scan hands on to be scored.
            assert expected.pop("scored") == sum(
                len(probe._gather_candidates(prepare(request),
                                             request.options.threshold)[1])
                for request in requests)
            for request in requests:
                index.query(request)
            for counter, amount in expected.items():
                counted[counter] += amount
            counters = index.counters()
            own = ("_queries", "topk_early_terminations")  # not the scan's
            # Exact, and a key nothing was ever added to stays absent.
            assert {key: value for key, value in counters.items()
                    if not key.endswith(own)} \
                == {f"serving/{counter}": amount
                    for counter, amount in counted.items() if amount}
            assert counters[f"serving/{kind}_queries"] == len(requests)
            if kind == "threshold":
                assert "serving/topk_queries" not in counters
                assert counters["serving/candidates_pruned"] > 0
        assert ("serving/stop_words_skipped" in counters) \
            == (frequency_limit is not None)

    def test_generic_scan_answers_as_the_scalar_kernel_does(self):
        members = make_random_multisets(count=40, alphabet_size=30,
                                        max_elements=8, seed=11)
        scalar, generic = SimilarityIndex("ruzicka"), SimilarityIndex(
            GenericRuzicka())
        for index in (scalar, generic):
            index.bulk_load(members)
        for member in members:
            assert (threshold_matches(scalar, member, 0.2)
                    == threshold_matches(generic, member, 0.2))
            assert topk_matches(scalar, member, 3) \
                == topk_matches(generic, member, 3)


members_strategy = st.lists(
    st.dictionaries(st.sampled_from("abcdefg"), st.integers(1, 4),
                    min_size=1, max_size=5),
    min_size=1, max_size=8)


class TestInlinedScan:
    """Ruzicka's declared kernels, inlined in the scan, are the called ones."""

    @settings(max_examples=150, deadline=None)
    @given(measure_name=st.sampled_from(["ruzicka", "jaccard"]),
           contents=members_strategy,
           query=st.dictionaries(st.sampled_from("abcdefgh"),
                                 st.integers(1, 4), min_size=1, max_size=5),
           k=st.integers(1, 4), data=st.data())
    def test_the_inlined_scan_answers_as_the_called_kernels(
            self, measure_name, contents, query, k, data):
        """Same matches, same floats to the bit, same counters; thresholds
        drawn where a similarity or a bound lands exactly on them."""
        members = [Multiset(f"m{position}", counts)
                   for position, counts in enumerate(contents)]
        query = Multiset("q", query)
        inlined, called = (SimilarityIndex(measure_name) for _ in range(2))
        assert inlined._inline_bound and inlined._inline_sum_min
        called._inline_bound = called._inline_sum_min = False
        for index in (inlined, called):
            index.bulk_load(members)
        measure = inlined.measure
        uni_q = measure.unilateral(query)
        landings = sorted(
            ({measure.similarity(query, member) for member in members}
             | {measure.similarity_upper_bound(uni_q, index_uni)
                for index_uni in inlined._uni.values()}) - {0.0})
        threshold = data.draw(st.sampled_from(landings) if landings
                              else st.just(0.5))
        for request in (QueryRequest.threshold(query, threshold),
                        QueryRequest.topk(query, k)):
            answers = [[(match.multiset_id, match.similarity.hex())
                        for match in index.query(request).matches]
                       for index in (inlined, called)]
            assert answers[0] == answers[1]
        assert inlined.counters() == called.counters()

    def test_a_measure_that_changes_combine_keeps_the_called_kernels(self):
        """A Tversky-style variant of Ruzicka scores ``{a: 1}`` against
        ``{a: 1, b: 1}`` at 2/3; Ruzicka's inlined bound, 1/2, would prune
        the pair at 0.6."""
        class HalfWeighted(type(get_measure("ruzicka"))):
            name = "half_weighted_ruzicka"

            def combine(self, uni_i, uni_j, conj):
                intersection = conj[0]
                rest = 0.5 * (uni_i[0] + uni_j[0] - 2 * intersection)
                if intersection + rest <= 0:
                    return 0.0
                return intersection / (intersection + rest)

        index = SimilarityIndex(HalfWeighted())
        assert not index._inline_bound and index._inline_sum_min
        index.add(Multiset("pair", {"a": 1, "b": 1}))
        matches = threshold_matches(index, Multiset("q", {"a": 1}), 0.6)
        assert [(match.multiset_id, match.similarity) for match in matches] \
            == [("pair", 2 / 3)]


class TestPreparedQuery:
    def test_one_prepared_query_serves_different_indexes(self):
        members = make_random_multisets(count=40, alphabet_size=20,
                                        max_elements=8, seed=3)
        first = SimilarityIndex("ruzicka")
        first.bulk_load(members[:25])
        second = SimilarityIndex("ruzicka", stop_word_frequency=3)
        second.bulk_load(members[10:])
        second.remove(members[12].id)  # and a different write version
        assert first.version != second.version
        for query in members:
            for request in (QueryRequest.threshold(query, 0.3),
                            QueryRequest.topk(query, 4)):
                prepared = prepare(request)
                for _ in range(2):  # a second pass rescans from the memo
                    for index in (first, second):
                        assert index.query(prepared) \
                            == index.query(prepare(request)) \
                            == index.query(request)
                first.add(query.with_id("late"), replace=True)  # a write between

    def test_prepare_is_idempotent_and_lazy(self):
        request = QueryRequest.threshold(Multiset("q", {"a": 2, "b": 1}), 0.5)
        prepared = prepare(request)
        assert prepare(prepared) is prepared
        assert prepared.signature == content_signature(request.query)
        assert prepared._scan is None  # nothing scanned yet
        measure = get_measure("jaccard")
        assert prepared.scan_form(measure)[1:] == (
            (2.0,), [("a", 1.0), ("b", 1.0)])
        assert prepared.scan_form(measure) is prepared.scan_form(measure)
        # Another measure asks: rebuilt for it, never served the wrong fold.
        assert prepared.scan_form(get_measure("ruzicka"))[1] == (3.0,)


class TestIncrementalMaintenance:
    """Acceptance: add/remove then re-query == fresh index on the final state."""

    @pytest.mark.parametrize("name", ["ruzicka", "jaccard", "vector_cosine"])
    def test_mutated_index_matches_fresh_build(self, name, small_multisets):
        churned = SimilarityIndex(name)
        churned.bulk_load(small_multisets)
        # Churn: drop a third of the members, re-add half of those dropped
        # with different contents, then drop a few of the re-added ones.
        dropped = small_multisets[::3]
        for member in dropped:
            churned.remove(member.id)
        readded = [member.scaled(2) for member in dropped[::2]]
        for member in readded:
            churned.add(member)
        for member in readded[::2]:
            churned.remove(member.id)

        final_state = {member.id: member for member in small_multisets
                       if member not in dropped}
        for member in readded:
            final_state[member.id] = member
        for member in readded[::2]:
            del final_state[member.id]
        fresh = SimilarityIndex(name)
        fresh.bulk_load(final_state.values())

        assert set(churned.ids()) == set(fresh.ids())
        query = small_multisets[1]
        assert (threshold_matches(churned, query, 0.3)
                == threshold_matches(fresh, query, 0.3))
        assert topk_matches(churned, query, 5) == topk_matches(fresh, query, 5)
        assert (index_pair_dictionary(churned, 0.4)
                == index_pair_dictionary(fresh, 0.4))


class TestLRUResultCache:
    @pytest.mark.parametrize("capacity", [-1, 2.5, True, "8"])
    def test_a_capacity_that_is_not_a_count_is_rejected(self, capacity):
        with pytest.raises(ServingError, match="cache capacity"):
            LRUResultCache(capacity)

    def test_hit_miss_and_eviction(self):
        cache = LRUResultCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes recency
        cache.put("c", 3)           # evicts b (least recently used)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.metrics == {"cache/misses": 2, "cache/hits": 3,
                                 "cache/evictions": 1}

    def test_invalidate_clears_entries(self):
        cache = LRUResultCache(capacity=4)
        cache.put("a", 1)
        cache.invalidate()
        assert cache.get("a") is None
        assert cache.metrics["cache/invalidations"] == 1

    def test_zero_capacity_disables_caching(self):
        cache = LRUResultCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ServingError):
            LRUResultCache(capacity=-1)

    def test_hit_rate(self):
        cache = LRUResultCache(capacity=2)
        assert "cache/hit_rate" not in read(cache.metrics)  # nothing counted
        cache.put("a", 1)
        cache.get("a")
        assert read(cache.metrics)["cache/hit_rate"] == 1.0
        cache.get("b")
        assert read(cache.metrics)["cache/hit_rate"] == pytest.approx(0.5)


class TestServingNode:
    def test_cached_result_equals_fresh_result(self, small_multisets):
        node = ServingNode("ruzicka", cache_capacity=16)
        node.bulk_load(small_multisets)
        query = small_multisets[0]
        first = threshold_matches(node, query, 0.4)
        second = threshold_matches(node, query, 0.4)
        assert first == second
        assert node.metrics["cache/hits"] == 1
        # Only one index scan happened for the two calls.
        assert node.index.counters()["serving/threshold_queries"] == 1

    def test_writes_invalidate_the_cache(self, small_multisets):
        node = ServingNode("ruzicka", cache_capacity=16)
        node.bulk_load(small_multisets)
        query = small_multisets[0].with_id("query")
        before = threshold_matches(node, query, 0.4)
        node.add(small_multisets[0].with_id("twin"))
        after = threshold_matches(node, query, 0.4)
        assert {match.multiset_id for match in after} \
            == {match.multiset_id for match in before} | {"twin"}

    def test_direct_index_writes_cannot_serve_stale_results(
            self, overlapping_multisets):
        node = ServingNode("ruzicka", cache_capacity=16)
        node.bulk_load(overlapping_multisets)
        query = overlapping_multisets[0].with_id("probe")
        before = {match.multiset_id
                  for match in threshold_matches(node, query, 0.4)}
        # Bypass the node: write straight to the underlying index.
        node.index.remove("b")
        after = {match.multiset_id for match in threshold_matches(node, query, 0.4)}
        assert "b" in before and "b" not in after

    def test_failed_bulk_load_still_invalidates(self, overlapping_multisets):
        node = ServingNode("ruzicka", cache_capacity=16)
        node.bulk_load(overlapping_multisets[:1])
        query = overlapping_multisets[0].with_id("query")
        threshold_matches(node, query, 0.4)
        # The batch mutates the index ('b' lands) before the duplicate 'a'
        # is rejected — the stale cached answer must not survive.
        with pytest.raises(ServingError):
            node.bulk_load([overlapping_multisets[1], overlapping_multisets[0]])
        assert {match.multiset_id
                for match in threshold_matches(node, query, 0.4)} == {"a", "b"}

    def test_content_signature_ignores_identifier_and_order(self):
        first = Multiset("a", [("x", 1), ("y", 2)])
        second = Multiset("b", [("y", 2), ("x", 1)])
        assert content_signature(first) == content_signature(second)

    def test_batch_deduplicates_identical_queries(self, small_multisets):
        node = ServingNode("ruzicka", cache_capacity=0)  # cache disabled
        node.bulk_load(small_multisets)
        query = small_multisets[0]
        responses = node.batch(
            [QueryRequest.threshold(q, 0.4)
             for q in (query, query.with_id("copy"), query)])
        assert len(responses) == 3
        assert (responses[0].matches == responses[1].matches
                == responses[2].matches)
        assert node.index.counters()["serving/threshold_queries"] == 1

    def test_batch_topk(self, small_multisets):
        node = ServingNode("ruzicka")
        node.bulk_load(small_multisets)
        queries = small_multisets[:4]
        responses = node.batch([QueryRequest.topk(q, 3) for q in queries])
        assert [list(response.matches) for response in responses] \
            == [topk_matches(node, query, 3) for query in queries]

    def test_stats_merge_index_and_cache(self, small_multisets):
        node = ServingNode("ruzicka")
        node.bulk_load(small_multisets)
        threshold_matches(node, small_multisets[0], 0.5)
        stats = node.stats()
        assert stats["indexed_multisets"] == len(small_multisets)
        assert stats["serving/threshold_queries"] == 1
        assert "cache/hit_rate" in stats


class TestShardedService:
    def test_routing_is_stable_and_partitioning(self, small_multisets):
        service = unreplicated_fleet("ruzicka", num_shards=4)
        service.bulk_load(small_multisets)
        assert len(service) == len(small_multisets)
        for multiset in small_multisets:
            shard = shard_for(multiset.id, 4)
            assert service.shard_for(multiset.id) == shard
            assert multiset.id in service.shards[shard]
        # Every shard owns a disjoint slice.
        assert sum(map(len, service.shards)) == len(small_multisets)

    @pytest.mark.parametrize("num_shards", [1, 3, 4])
    def test_fan_out_matches_single_node(self, num_shards, small_multisets):
        single = ServingNode("ruzicka")
        single.bulk_load(small_multisets)
        service = unreplicated_fleet("ruzicka", num_shards=num_shards)
        service.bulk_load(small_multisets)
        for query in small_multisets[:8]:
            expected = threshold_matches(single, query, 0.4)
            assert threshold_matches(service, query, 0.4) == expected
            expected_topk = [match.similarity
                             for match in topk_matches(single, query, 5)]
            found_topk = [match.similarity
                          for match in topk_matches(service, query, 5)]
            assert found_topk == pytest.approx(expected_topk)

    def test_batch_queries_match_loop(self, small_multisets):
        service = unreplicated_fleet("ruzicka", num_shards=3)
        service.bulk_load(small_multisets)
        queries = small_multisets[:5]
        threshold_responses = service.batch(
            [QueryRequest.threshold(q, 0.4) for q in queries])
        assert [list(response.matches) for response in threshold_responses] \
            == [threshold_matches(service, query, 0.4) for query in queries]
        topk_responses = service.batch(
            [QueryRequest.topk(q, 4) for q in queries])
        assert [list(response.matches) for response in topk_responses] \
            == [topk_matches(service, query, 4) for query in queries]

    def test_writes_route_to_owning_shard(self, small_multisets):
        service = unreplicated_fleet("ruzicka", num_shards=4)
        service.bulk_load(small_multisets)
        victim = small_multisets[0].id
        service.remove(victim)
        assert victim not in service
        assert len(service) == len(small_multisets) - 1

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ServingError):
            unreplicated_fleet("ruzicka", num_shards=0)
        with pytest.raises(ServingError):
            shard_for("m", 0)

    @pytest.mark.parametrize("knob, value", [
        ("num_shards", 2.5), ("num_shards", True), ("num_shards", "2"),
        ("replication_factor", 1.5), ("replication_factor", True),
        ("cache_capacity", 2.5), ("cache_capacity", True),
        ("cache_capacity", "64"),
    ])
    def test_a_knob_that_is_not_an_integer_is_a_serving_error(self, knob, value):
        """``num_shards=2.5`` and ``replication_factor=1.5`` raised a raw
        ``TypeError``; ``cache_capacity=2.5`` was accepted."""
        with pytest.raises(ServingError, match=knob.replace("_", "[_ ]")):
            repro.ReplicatedSimilarityService("ruzicka", **{knob: value})

    @pytest.mark.parametrize("value", [0, -1, 2.5])
    def test_every_bad_replication_factor_is_a_serving_error(self, value):
        """3.19 let ``0`` and ``-1`` through to the replica set, which raised
        a ``ResilienceError``: one knob of one door raised two error tiers."""
        with pytest.raises(ServingError) as raised:
            repro.ReplicatedSimilarityService("ruzicka",
                                              replication_factor=value)
        assert type(raised.value) is ServingError
        assert str(raised.value) == (
            f"replication_factor must be an int >= 1, got {value!r}")

    def test_neighbours_excludes_self(self, overlapping_multisets):
        service = unreplicated_fleet("ruzicka", num_shards=2)
        service.bulk_load(overlapping_multisets)
        matches = service.neighbours("a", 0.8)
        assert [match.multiset_id for match in matches] == ["b"]
        with pytest.raises(ServingError):
            service.neighbours("ghost", 0.8)


def test_serving_runs_without_importing_resilience():
    # The fleet lives in repro.serving; fault policies are handed in.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import repro.serving; "
            "assert not [m for m in sys.modules if 'resilience' in m]")
    subprocess.run([sys.executable, "-c", code, SOURCE_ROOT], check=True)


def batch_join(data, cluster, **spec_fields):
    """The batch join a fleet is warmed from, as the engine runs it."""
    return join(data, algorithm="online_aggregation", cluster=cluster,
                **spec_fields)


class TestBootstrap:
    def test_input_shapes(self, overlapping_multisets):
        tuples = explode_multisets(overlapping_multisets)
        as_dataset = Dataset("raw_input", tuples)
        for data in (overlapping_multisets, tuples, as_dataset,
                     {multiset.id: multiset
                      for multiset in overlapping_multisets}):
            assert {multiset.id for multiset in multisets_from_input(data)} \
                == {"a", "b", "c", "d", "e"}
        assert multisets_from_input([]) == []
        with pytest.raises(ServingError):
            multisets_from_input(["garbage"])

    def test_mixed_input_shapes_rejected(self, overlapping_multisets):
        mixed = [overlapping_multisets[0], InputTuple("z", "x", 1)]
        with pytest.raises(ServingError, match="mixed"):
            multisets_from_input(mixed)
        with pytest.raises(ServingError, match="mixed"):
            multisets_from_input(list(reversed(mixed)))

    def test_mapping_values_validated(self, overlapping_multisets):
        with pytest.raises(ServingError):
            multisets_from_input({"a": "not-a-multiset"})
        with pytest.raises(ServingError, match="mixed"):
            multisets_from_input({"a": overlapping_multisets[0],
                                  "z": InputTuple("z", "x", 1)})

    def test_bootstrap_without_join_result(self, small_multisets):
        service = bootstrap_from_join(small_multisets, num_shards=2)
        assert len(service) == len(small_multisets)
        assert service.measure.name == "ruzicka"

    def test_threshold_without_join_result_rejected(self, small_multisets):
        # The argument would have no effect; raising beats silent acceptance.
        with pytest.raises(ServingError, match="join_result"):
            bootstrap_from_join(small_multisets, threshold=0.9)

    def test_bootstrap_warms_member_queries(self, small_multisets, test_cluster):
        threshold = 0.4
        joined = batch_join(small_multisets, test_cluster, threshold=threshold)
        service = bootstrap_from_join(small_multisets, joined, num_shards=2)

        fresh = unreplicated_fleet("ruzicka", num_shards=2)
        fresh.bulk_load(small_multisets)
        hits_before = service.stats()["cache/hits"]
        for member in small_multisets:
            warmed = threshold_matches(service, member, threshold)
            expected = threshold_matches(fresh, member, threshold)
            assert [match.multiset_id for match in warmed] \
                == [match.multiset_id for match in expected]
            assert [match.similarity for match in warmed] \
                == pytest.approx([match.similarity for match in expected])
        # Every member query was answered from the warmed caches.
        hits = service.stats()["cache/hits"] - hits_before
        assert hits == len(small_multisets) * service.num_shards

    def test_bootstrap_from_pipeline_dataset(self, overlapping_multisets,
                                             test_cluster):
        joined = batch_join(overlapping_multisets, test_cluster, threshold=0.8)
        dataset = Dataset("raw_input", explode_multisets(overlapping_multisets))
        service = bootstrap_from_join(dataset, joined)
        assert {match.multiset_id
                for match in service.neighbours("a", 0.8)} == {"b"}

    def test_mismatched_measure_or_threshold_rejected(self, overlapping_multisets,
                                                      test_cluster):
        joined = batch_join(overlapping_multisets, test_cluster, threshold=0.8)
        with pytest.raises(ServingError):
            bootstrap_from_join(overlapping_multisets, joined, measure="jaccard")
        with pytest.raises(ServingError):
            bootstrap_from_join(overlapping_multisets, joined, threshold=0.5)

    def test_warm_cache_capacity_guard(self, small_multisets, test_cluster):
        joined = batch_join(small_multisets, test_cluster, threshold=0.4)
        # Too small to retain the warm-up: rejected, not silently evicted.
        with pytest.raises(ServingError, match="cache_capacity"):
            bootstrap_from_join(small_multisets, joined, cache_capacity=4)
        # Auto-sizing keeps every warmed entry resident.
        service = bootstrap_from_join(small_multisets, joined)
        assert service.cache_capacity >= len(small_multisets)
        # A small explicit capacity is fine when nothing is warmed.
        cold = bootstrap_from_join(small_multisets, cache_capacity=4)
        assert cold.cache_capacity == 4
        assert cold.stats()["cache/capacity"] == 4 * cold.num_shards

    @pytest.mark.parametrize("capacity", ["64", True, 2.5])
    def test_warm_cache_capacity_must_be_an_int(self, small_multisets,
                                                test_cluster, capacity):
        """A non-int capacity is a ``ServingError`` naming the knob, checked
        before the warm-up size check compares it (``"64"`` used to raise a
        raw ``TypeError`` there, ``True`` and ``2.5`` a misleading "cannot
        hold" error)."""
        joined = batch_join(small_multisets, test_cluster, threshold=0.4)
        with pytest.raises(ServingError, match="cache_capacity must be an "
                                               "int "):
            bootstrap_from_join(small_multisets, joined,
                                cache_capacity=capacity)

    def test_stale_join_result_rejected(self, overlapping_multisets,
                                        test_cluster):
        joined = batch_join(overlapping_multisets, test_cluster, threshold=0.8)
        # Drop a joined member from the bootstrap data: the warm-up would
        # cache matches pointing at an unindexed multiset.
        without_b = [multiset for multiset in overlapping_multisets
                     if multiset.id != "b"]
        with pytest.raises(ServingError, match="not in the bootstrap data"):
            bootstrap_from_join(without_b, joined)

    def test_stop_word_join_cannot_warm(self, small_multisets, test_cluster):
        joined = batch_join(small_multisets, test_cluster, threshold=0.4, stop_word_frequency=5)
        with pytest.raises(ServingError):
            bootstrap_from_join(small_multisets, joined)

    def test_run_join_warms_like_explicit_join(self, small_multisets, test_cluster):
        # The one-call warm start, on any backend: run the join on the
        # engine and hand its result over.
        threshold = 0.4
        joined = batch_join(small_multisets, test_cluster, threshold=threshold)
        for backend in ("disk", SPILLING_DISK):
            explicit = bootstrap_from_join(small_multisets, joined, num_shards=2)
            inline = batch_join(small_multisets, test_cluster, backend=backend,
                                threshold=threshold).to_service(num_shards=2)
            for member in small_multisets:
                assert [(m.multiset_id, m.similarity)
                        for m in threshold_matches(inline, member, threshold)] \
                    == [(m.multiset_id, m.similarity)
                        for m in threshold_matches(explicit, member, threshold)]
            # The inline join warmed the caches just like the explicit one.
            assert inline.stats()["cache/hits"] == explicit.stats()["cache/hits"]

    def test_run_join_accepts_one_shot_iterators(self, small_multisets, test_cluster):
        # The join and the index build must not consume `data` twice.
        service = batch_join(iter(small_multisets), test_cluster,
                             threshold=0.4).to_service()
        assert len(service) == len(small_multisets)

    def test_pruning_index_cannot_be_warmed(self, small_multisets, test_cluster):
        # Warmed exact answers would silently flip to pruned ones on the
        # first cache invalidation, so the combination is rejected.
        joined = batch_join(small_multisets, test_cluster, threshold=0.4)
        with pytest.raises(ServingError, match="stop-word pruning"):
            bootstrap_from_join(small_multisets, joined, stop_word_frequency=3)
        # Without warm-up data the pruning knob remains available.
        service = bootstrap_from_join(small_multisets, stop_word_frequency=3)
        assert len(service) == len(small_multisets)


class TestQueryWorkload:
    def test_deterministic_and_well_formed(self, small_multisets):
        config = QueryWorkloadConfig(num_queries=50, zipf_exponent=1.4, seed=3)
        first = generate_query_workload(small_multisets, config)
        second = generate_query_workload(small_multisets, config)
        assert first == second
        assert len(first) == 50
        assert len({query.id for query in first}) == 50  # fresh identifiers
        member_signatures = {content_signature(member)
                             for member in small_multisets}
        assert all(content_signature(query) in member_signatures
                   for query in first)

    def test_zipf_skew_produces_repeats(self, small_multisets):
        queries = generate_query_workload(
            small_multisets, QueryWorkloadConfig(num_queries=200,
                                                 zipf_exponent=1.5, seed=1))
        distinct = {content_signature(query) for query in queries}
        assert len(queries) == 200
        assert len(distinct) < 140  # a repeat rate above 0.3

    def test_perturbation_changes_contents(self, small_multisets):
        config = QueryWorkloadConfig(num_queries=100, zipf_exponent=1.2,
                                     perturbation_probability=1.0, seed=5)
        queries = generate_query_workload(small_multisets, config)
        member_signatures = {content_signature(member)
                             for member in small_multisets}
        assert any(content_signature(query) not in member_signatures
                   for query in queries)

    def test_perturbation_survives_tiny_multisets(self):
        config = QueryWorkloadConfig(num_queries=20,
                                     perturbation_probability=1.0, seed=2)
        singletons = [Multiset("s", {"only": 1}), Multiset("e", {})]
        queries = generate_query_workload(singletons, config)
        assert len(queries) == 20
        for query in queries:
            assert query.cardinality >= 0  # no crash, contents stay valid

    def test_invalid_parameters_rejected(self, small_multisets):
        with pytest.raises(DatasetError):
            generate_query_workload([], QueryWorkloadConfig(num_queries=5))
        with pytest.raises(DatasetError):
            QueryWorkloadConfig(num_queries=-1)
        with pytest.raises(DatasetError):
            QueryWorkloadConfig(zipf_exponent=0.0)
        with pytest.raises(DatasetError):
            QueryWorkloadConfig(perturbation_probability=1.5)


class TestSortMatches:
    def test_orders_by_similarity_then_id(self):
        matches = [QueryMatch("b", 0.5), QueryMatch("a", 0.5),
                   QueryMatch("c", 0.9)]
        assert [match.multiset_id for match in sort_matches(matches)] \
            == ["c", "a", "b"]

    def test_mixed_identifier_types_fall_back_to_repr(self):
        matches = [QueryMatch(2, 0.5), QueryMatch("a", 0.5)]
        ordered = sort_matches(matches)
        assert {match.multiset_id for match in ordered} == {2, "a"}


class TestInternedIndex:
    """The element-keyed index answers exactly like a dict-kernel brute
    force (its postings were keyed by interned dense ids up to 3.19)."""

    def build(self, multisets, measure="ruzicka"):
        index = SimilarityIndex(measure)
        index.bulk_load(multisets)
        return index

    @pytest.mark.parametrize("measure", ["ruzicka", "jaccard", "vector_cosine",
                                         "overlap"])
    def test_threshold_and_topk_parity(self, small_multisets, measure):
        index = self.build(small_multisets, measure=measure)
        similarity = get_measure(measure).similarity
        for query in small_multisets[:6]:
            scored = sort_matches(
                QueryMatch(member.id, similarity(query, member))
                for member in small_multisets)
            for found, expected in (
                    (threshold_matches(index, query, 0.4),
                     [match for match in scored if match.similarity >= 0.4]),
                    (topk_matches(index, query, 5), scored[:5])):
                assert [match.multiset_id for match in found] \
                    == [match.multiset_id for match in expected]
                assert [match.similarity for match in found] \
                    == pytest.approx([match.similarity for match in expected])

    def test_remove_retracts_interned_postings(self, overlapping_multisets):
        index = self.build(overlapping_multisets)
        postings_before = index.num_postings
        index.remove("a")
        assert index.num_postings < postings_before
        assert "a" not in index
        matches = threshold_matches(index, overlapping_multisets[1], 0.9)
        assert all(match.multiset_id != "a" for match in matches)

    def test_unknown_query_elements_skip_scanning(self, overlapping_multisets):
        index = self.build(overlapping_multisets)
        stranger = Multiset("query", {"never-indexed-1": 2, "never-indexed-2": 1})
        assert threshold_matches(index, stranger, 0.1) == []
        assert index.counters().get("serving/postings_scanned", 0) == 0

    def test_literal_none_element_is_a_real_element(self):
        # None is a legal multiset element, and a postings key like any other.
        index = SimilarityIndex("ruzicka")
        index.add(Multiset("a", {None: 3, "x": 1}))
        matches = threshold_matches(index, Multiset("q", {None: 3, "x": 1}), 0.9)
        assert [match.multiset_id for match in matches] == ["a"]
        assert matches[0].similarity == 1.0
        index.remove("a")
        assert index.num_postings == 0

    def test_upper_bound_pruning_still_counts(self, small_multisets):
        index = self.build(small_multisets)
        threshold_matches(index, small_multisets[0], 0.95)
        counters = index.counters()
        assert counters["serving/candidates_examined"] > 0


class TestCacheCounterExposure:
    """Satellite: hit/miss/eviction counters surface on node and service."""

    def test_node_counter_properties(self, overlapping_multisets):
        node = ServingNode("ruzicka", cache_capacity=2)
        node.bulk_load(overlapping_multisets)
        query = overlapping_multisets[0]
        threshold_matches(node, query, 0.5)
        threshold_matches(node, query, 0.5)
        # The index and the cache count into the node's one map.
        assert node.index.metrics is node.cache.metrics is node.metrics
        assert (node.metrics["cache/hits"], node.metrics["cache/misses"],
                node.metrics["cache/evictions"]) == (1, 1, 0)
        # Two more content-distinct entries overflow the capacity-2 cache
        # (multisets "a" and "b" share a content signature, so index 1
        # would be a hit, not a new entry).
        threshold_matches(node, overlapping_multisets[2], 0.5)
        threshold_matches(node, overlapping_multisets[3], 0.5)
        stats = node.stats()
        assert stats["cache/evictions"] == node.metrics["cache/evictions"] == 1
        assert (stats["cache/hits"], stats["cache/misses"]) == (1, 3)
        assert stats["cache/hit_rate"] == 0.25

    def test_service_per_node_stats(self, small_multisets):
        service = unreplicated_fleet("ruzicka", num_shards=3,
                                     cache_capacity=8)
        service.bulk_load(small_multisets)
        for query in small_multisets[:4]:
            threshold_matches(service, query, 0.5)
            threshold_matches(service, query, 0.5)
        per_node = service.per_node_stats()
        assert set(per_node) == {"shard0/replica0", "shard1/replica0",
                                 "shard2/replica0"}
        totals = service.stats()
        for stat in ("cache/hits", "cache/misses", "cache/evictions"):
            assert totals[stat] == sum(stats[stat] for stats in per_node.values())
        assert totals["cache/hits"] > 0


# ---------------------------------------------------------------------------
# Stateful model check of the mutable serving surface
# ---------------------------------------------------------------------------

from hypothesis import HealthCheck, settings as hyp_settings  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

#: Small universes so replaces, re-adds and duplicate rejections are common.
SERVING_IDS = tuple(f"i{index}" for index in range(8))
SERVING_ALPHABET = tuple(f"w{index}" for index in range(8))

SERVING_CONTENTS = st.dictionaries(st.sampled_from(SERVING_ALPHABET),
                                   st.integers(min_value=1, max_value=4),
                                   max_size=5)


class ServingNodeModelMachine(RuleBasedStateMachine):
    """A ServingNode stays in parity with a brute-force model under churn.

    Exercises the historically under-tested paths: ``remove``, ``replace``,
    duplicate-add rejection, the write-version counter, and result-cache
    correctness across invalidations (every query immediately follows
    arbitrary interleaved writes, so a stale cache entry would surface as a
    wrong answer).
    """

    def __init__(self):
        super().__init__()
        self.node = None
        self.model: dict = {}
        self.measure = None
        self.capacity = 0
        self.last_version = 0

    @initialize(measure=st.sampled_from(["ruzicka", "jaccard",
                                         "vector_cosine", "overlap"]),
                capacity=st.sampled_from([0, 2, 64]))
    def setup(self, measure, capacity):
        self.measure = get_measure(measure)
        self.capacity = capacity
        self.node = ServingNode(measure, cache_capacity=capacity)
        self.model = {}
        self.last_version = 0

    def _assert_write_bumped(self):
        assert self.node.index.version > self.last_version
        self.last_version = self.node.index.version

    def _expected_threshold(self, query, threshold):
        return sort_matches(
            QueryMatch(multiset_id, similarity)
            for multiset_id, member in self.model.items()
            if (similarity := self.measure.similarity(query, member))
            >= threshold)

    def _draw_query(self, data):
        if self.model and data.draw(st.booleans(), label="member query?"):
            source = self.model[data.draw(st.sampled_from(sorted(self.model)),
                                          label="query source")]
            return source.with_id("q")
        return Multiset("q", data.draw(SERVING_CONTENTS,
                                       label="query contents"))

    # -- writes ---------------------------------------------------------------

    @rule(data=st.data(), contents=SERVING_CONTENTS)
    def add(self, data, contents):
        target = data.draw(st.sampled_from(SERVING_IDS), label="add target")
        member = Multiset(target, contents)
        if target in self.model:
            with pytest.raises(ServingError):
                self.node.add(member)
            # The rejected write must not have mutated anything.
            assert self.node.index.version == self.last_version
            assert self.node.index.get(target) == self.model[target]
        else:
            self.node.add(member)
            self.model[target] = member
            self._assert_write_bumped()

    @precondition(lambda self: self.model)
    @rule(data=st.data(), contents=SERVING_CONTENTS)
    def replace(self, data, contents):
        target = data.draw(st.sampled_from(sorted(self.model)),
                           label="replace target")
        member = Multiset(target, contents)
        self.node.add(member, replace=True)
        self.model[target] = member
        self._assert_write_bumped()

    @rule(data=st.data())
    def remove(self, data):
        target = data.draw(st.sampled_from(SERVING_IDS), label="remove target")
        if target in self.model:
            self.node.remove(target)
            del self.model[target]
            self._assert_write_bumped()
        else:
            with pytest.raises(ServingError):
                self.node.remove(target)
            assert self.node.index.version == self.last_version

    # -- queries (always against a freshly mutated index) ---------------------

    @rule(data=st.data(), threshold=st.sampled_from([0.2, 0.5, 0.9]))
    def query_threshold_matches_brute_force(self, data, threshold):
        query = self._draw_query(data)
        expected = self._expected_threshold(query, threshold)
        found = threshold_matches(self.node, query, threshold)
        assert [match.multiset_id for match in found] \
            == [match.multiset_id for match in expected]
        assert [match.similarity for match in found] \
            == pytest.approx([match.similarity for match in expected])
        # Asking again returns the identical answer; with a cache it is a
        # hit, without one it recomputes — either way no drift.
        hits_before = self.node.metrics["cache/hits"]
        assert threshold_matches(self.node, query, threshold) == found
        if self.capacity > 0:
            assert self.node.metrics["cache/hits"] == hits_before + 1
        else:
            assert self.node.metrics["cache/hits"] == 0

    @rule(data=st.data(), k=st.integers(min_value=1, max_value=5))
    def query_topk_matches_brute_force(self, data, k):
        query = self._draw_query(data)
        # The index only scores candidates sharing an element; for every
        # supported measure those are exactly the positive similarities.
        expected = sort_matches(
            match for match in self._expected_threshold(query, 1e-12))[:k]
        found = topk_matches(self.node, query, k)
        assert [match.multiset_id for match in found] \
            == [match.multiset_id for match in expected]
        assert [match.similarity for match in found] \
            == pytest.approx([match.similarity for match in expected])

    # -- invariants -----------------------------------------------------------

    @invariant()
    def membership_matches_model(self):
        if self.node is None:
            return
        assert len(self.node) == len(self.model)
        assert set(self.node.index.ids()) == set(self.model)
        for multiset_id, member in self.model.items():
            assert multiset_id in self.node
            assert self.node.index.get(multiset_id) == member

    @invariant()
    def empty_index_has_no_postings(self):
        if self.node is not None and not self.model:
            assert self.node.index.num_postings == 0


ServingNodeModelMachine.TestCase.settings = hyp_settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.filter_too_much])
TestServingNodeStateful = ServingNodeModelMachine.TestCase
