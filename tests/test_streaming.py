"""Tests for incremental join maintenance (`repro.streaming`).

The centerpiece is a Hypothesis ``RuleBasedStateMachine``: arbitrary
interleaved upsert/replace/delete streams — applied one at a time and in
mixed batches, under every apply strategy — keep a :class:`JoinView` in
exact parity with the dict-kernel brute force over the mutated corpus,
across measures × algorithms × backends.  A replica pair
map maintained *only* from the emitted deltas is asserted equal to the
view's own state at every step, which pins the delta contract (the
cumulative effect of the deltas IS the new result).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.exceptions import DatasetError, StreamingError
from repro.core.multiset import Multiset
from repro.datasets.workload import (
    MutationStreamConfig,
    generate_mutation_stream,
)
from repro.engine.engine import SimilarityEngine
from repro.engine.spec import JoinSpec
from repro.mapreduce.cluster import laptop_cluster
from repro.serving.api import QueryRequest
from repro.serving.node import ServingNode
from repro.streaming.changes import (
    DELETE,
    PAIR_ADDED,
    PAIR_REMOVED,
    SCORE_CHANGED,
    UPSERT,
    Change,
    ChangeBatch,
    PairDelta,
    apply_deltas,
    sort_deltas,
)
from repro.streaming.subscribers import attach_serving
from repro.streaming.view import INCREMENTAL, REJOIN, JoinView
from tests.conftest import assert_matches_oracle, join_grid, unreplicated_fleet

#: Fixed identifier / alphabet universes for the stateful machine: small
#: enough that collisions (replaces, re-adds, shared elements) are common.
MACHINE_IDS = tuple(f"s{index}" for index in range(8))
MACHINE_ALPHABET = tuple(f"e{index}" for index in range(8))

CONTENTS = st.dictionaries(st.sampled_from(MACHINE_ALPHABET),
                           st.integers(min_value=1, max_value=4),
                           max_size=5)

STRATEGIES = st.sampled_from(["auto", INCREMENTAL, REJOIN])


def view_over(multisets, spec=None, engine=None):
    spec = spec or JoinSpec(threshold=0.4, algorithm="exact")
    return JoinView(spec, multisets, engine=engine)


# ---------------------------------------------------------------------------
# Change / ChangeBatch / PairDelta record types
# ---------------------------------------------------------------------------


class TestChangeRecords:
    def test_upsert_and_delete_constructors(self):
        member = Multiset("m", {"x": 1})
        upsert = Change.upsert(member)
        assert upsert.kind == UPSERT and upsert.target == "m"
        delete = Change.delete("m")
        assert delete.kind == DELETE and delete.target == "m"

    def test_invalid_changes_rejected(self):
        with pytest.raises(StreamingError):
            Change(kind="upsert", multiset=None)
        with pytest.raises(StreamingError):
            Change(kind="delete", multiset=Multiset("m", {"x": 1}))
        with pytest.raises(StreamingError):
            Change(kind="mutate")

    def test_batch_coercion_and_views(self):
        member = Multiset("m", {"x": 1})
        batch = ChangeBatch.of(Change.upsert(member), Change.delete("z"),
                               Change.upsert(member))
        assert len(batch) == 3 and bool(batch)
        assert ChangeBatch.coerce(batch) is batch
        assert len(ChangeBatch.coerce(Change.delete("z"))) == 1
        assert len(ChangeBatch.coerce([Change.delete("z")])) == 1
        assert len(batch.upserts) == 2 and len(batch.deletes) == 1
        assert batch.targets() == ["m", "z"]
        assert not ChangeBatch()

    def test_batch_rejects_non_changes(self):
        with pytest.raises(StreamingError):
            ChangeBatch(["garbage"])

    def test_delta_validation(self):
        with pytest.raises(StreamingError):
            PairDelta("a", "b", "pair_vanished", similarity=0.5)
        with pytest.raises(StreamingError):
            PairDelta("a", "b", PAIR_REMOVED, similarity=0.5, previous=0.4)
        with pytest.raises(StreamingError):
            PairDelta("a", "b", PAIR_ADDED, similarity=None)
        with pytest.raises(StreamingError):
            PairDelta("a", "b", PAIR_ADDED, similarity=0.5, previous=0.4)
        with pytest.raises(StreamingError):
            PairDelta("a", "b", SCORE_CHANGED, similarity=0.5)

    def test_delta_factories_canonicalise(self):
        assert PairDelta.added("b", "a", 0.5).pair == ("a", "b")
        assert PairDelta.removed("b", "a", 0.5).pair == ("a", "b")
        assert PairDelta.changed("b", "a", 0.6, 0.5).pair == ("a", "b")

    def test_sort_deltas_is_total_over_mixed_ids(self):
        deltas = [PairDelta.added(2, 10, 0.5), PairDelta.added("a", "b", 0.5)]
        assert {delta.pair for delta in sort_deltas(deltas)} \
            == {(2, 10), ("a", "b")}

    def test_apply_deltas_replays_and_rejects_mismatches(self):
        pairs = {("a", "b"): 0.5}
        apply_deltas(pairs, [PairDelta.removed("a", "b", 0.5),
                             PairDelta.added("a", "c", 0.7)])
        assert pairs == {("a", "c"): 0.7}
        apply_deltas(pairs, [PairDelta.changed("a", "c", 0.9, 0.7)])
        assert pairs == {("a", "c"): 0.9}
        with pytest.raises(StreamingError):
            apply_deltas(pairs, [PairDelta.added("a", "c", 0.1)])
        with pytest.raises(StreamingError):
            apply_deltas(pairs, [PairDelta.removed("x", "y", 0.1)])
        with pytest.raises(StreamingError):
            apply_deltas(pairs, [PairDelta.changed("x", "y", 0.1, 0.2)])


# ---------------------------------------------------------------------------
# View construction
# ---------------------------------------------------------------------------


class TestViewConstruction:
    def test_materialize_and_to_view_agree_with_direct_build(
            self, overlapping_multisets):
        spec = JoinSpec(threshold=0.8, algorithm="online_aggregation")
        with SimilarityEngine(cluster=laptop_cluster(3)) as engine:
            materialized = engine.materialize(spec, overlapping_multisets)
            from_result = engine.run(spec, overlapping_multisets).to_view()
        direct = JoinView(spec, overlapping_multisets)
        assert materialized.pairs() == from_result.pairs() == direct.pairs()
        assert materialized.pairs() == {("a", "b"): 1.0,
                                        ("d", "e"): pytest.approx(6 / 7)}

    def test_minhash_spec_rejected(self, small_multisets):
        with pytest.raises(StreamingError, match="minhash"):
            JoinView(JoinSpec(threshold=0.4, algorithm="minhash"),
                     small_multisets)

    def test_stop_word_spec_rejected(self, small_multisets):
        with pytest.raises(StreamingError, match="stop-word"):
            JoinView(JoinSpec(threshold=0.4, algorithm="exact",
                              stop_word_frequency=5), small_multisets)

    def test_stale_pairs_rejected(self, overlapping_multisets):
        spec = JoinSpec(threshold=0.8, algorithm="exact")
        with SimilarityEngine() as engine:
            result = engine.run(spec, overlapping_multisets)
        without_b = [multiset for multiset in overlapping_multisets
                     if multiset.id != "b"]
        with pytest.raises(StreamingError, match="same collection"):
            JoinView(spec, without_b, pairs=result.pairs)

    def test_read_surface(self, overlapping_multisets):
        view = view_over(overlapping_multisets,
                         JoinSpec(threshold=0.8, algorithm="exact"))
        assert view.num_members == 5 and view.num_pairs == 2
        assert "a" in view and "ghost" not in view
        assert view.get("a") == overlapping_multisets[0]
        assert view.score("b", "a") == 1.0 and view.score("a", "c") is None
        assert [pair.pair for pair in view] == [("a", "b"), ("d", "e")]
        assert {member.id for member in view.members()} \
            == {"a", "b", "c", "d", "e"}
        matches = view.matches_for("a")
        assert [(m.multiset_id, m.similarity) for m in matches] == [("b", 1.0)]
        assert view.matches_for("c") == []
        with pytest.raises(StreamingError):
            view.matches_for("ghost")
        assert "JoinView" in repr(view)


# ---------------------------------------------------------------------------
# Applying batches
# ---------------------------------------------------------------------------


class TestApply:
    def test_delta_kinds_cover_add_remove_and_rescore(self):
        corpus = [Multiset("a", {"x": 2, "y": 2}), Multiset("b", {"x": 2, "y": 2}),
                  Multiset("c", {"z": 1})]
        view = view_over(corpus, JoinSpec(threshold=0.5, algorithm="exact"))
        assert view.pairs() == {("a", "b"): 1.0}
        deltas = view.apply(ChangeBatch.of(
            Change.upsert(Multiset("b", {"x": 2, "y": 1})),  # rescore a-b
            Change.upsert(Multiset("c", {"x": 2, "y": 2})),  # add a-c
        ))
        kinds = {delta.pair: delta.kind for delta in deltas}
        assert kinds[("a", "b")] == SCORE_CHANGED
        assert kinds[("a", "c")] == PAIR_ADDED
        removed = view.delete("a")
        assert {delta.kind for delta in removed} == {PAIR_REMOVED}
        assert all(delta.previous is not None for delta in removed)

    def test_validation_is_atomic(self, overlapping_multisets):
        view = view_over(overlapping_multisets)
        before = view.pairs()
        with pytest.raises(StreamingError, match="does not hold"):
            view.apply(ChangeBatch.of(
                Change.upsert(Multiset("fresh", {"x": 1})),
                Change.delete("ghost")))
        assert view.pairs() == before
        assert "fresh" not in view
        assert view.version == 0

    def test_batch_internal_ordering_is_respected(self, overlapping_multisets):
        view = view_over(overlapping_multisets)
        # Upsert then delete the same identifier inside one batch: legal,
        # and the net effect is absence.
        view.apply(ChangeBatch.of(Change.upsert(Multiset("fresh", {"x": 1})),
                                  Change.delete("fresh")))
        assert "fresh" not in view
        # Deleting before the upsert is invalid at that point in the batch.
        with pytest.raises(StreamingError):
            view.apply(ChangeBatch.of(Change.delete("fresh2"),
                                      Change.upsert(Multiset("fresh2", {"x": 1}))))

    def test_empty_batch_is_a_no_op(self, overlapping_multisets):
        view = view_over(overlapping_multisets)
        assert view.apply(ChangeBatch()) == []
        assert view.version == 0

    def test_unknown_strategy_rejected(self, overlapping_multisets):
        view = view_over(overlapping_multisets)
        with pytest.raises(StreamingError, match="strategy"):
            view.apply(ChangeBatch.of(Change.delete("a")), strategy="magic")

    @pytest.mark.parametrize("algorithm", ["exact", "online_aggregation"])
    def test_forced_strategies_emit_identical_deltas(self, small_multisets,
                                                     algorithm):
        spec = JoinSpec(threshold=0.4, algorithm=algorithm)
        with SimilarityEngine(cluster=laptop_cluster(3)) as engine:
            incremental = engine.materialize(spec, small_multisets)
            rejoined = engine.materialize(spec, small_multisets)
            batch = ChangeBatch.of(
                Change.upsert(small_multisets[0].scaled(2)),
                Change.delete(small_multisets[1].id),
                Change.upsert(Multiset("fresh", small_multisets[2].counts())))
            first = incremental.apply(batch, strategy=INCREMENTAL)
            second = rejoined.apply(batch, strategy=REJOIN)
        assert first == second
        assert incremental.pairs() == rejoined.pairs()
        assert incremental.counters()["streaming/batches_incremental"] == 1
        assert rejoined.counters()["streaming/batches_rejoin"] == 1

    def test_version_and_counters_track_batches(self, overlapping_multisets):
        view = view_over(overlapping_multisets)
        view.upsert(Multiset("f", {"x": 3, "y": 2, "z": 1}))
        view.delete("f")
        assert view.version == 2
        counters = view.counters()
        assert counters["streaming/changes_applied"] == 2
        assert counters["streaming/pair_added"] \
            == counters["streaming/pair_removed"]

    def test_subscribers_see_batches_and_deltas(self, overlapping_multisets):
        view = view_over(overlapping_multisets)
        seen = []
        callback = view.subscribe(
            lambda v, batch, deltas: seen.append((len(batch), list(deltas))))
        deltas = view.delete("b")
        assert seen == [(1, deltas)]
        view.unsubscribe(callback)
        view.delete("a")
        assert len(seen) == 1
        with pytest.raises(StreamingError):
            view.unsubscribe(callback)


# ---------------------------------------------------------------------------
# Strategy pricing
# ---------------------------------------------------------------------------


class TestApplyPlan:
    def test_small_batches_price_incremental(self, small_multisets):
        view = view_over(small_multisets,
                         JoinSpec(threshold=0.4, algorithm="online_aggregation"))
        plan = view.decide(ChangeBatch.of(Change.delete(small_multisets[0].id)))
        assert plan.strategy == INCREMENTAL
        assert plan.incremental_seconds < plan.rejoin_seconds
        assert plan.touched == 1
        assert "ApplyPlan" in plan.explain()

    def test_corpus_rewrites_price_rejoin(self):
        # Every member shares one hot element, so rescanning the postings of
        # a whole-corpus rewrite costs ~N^2 posting visits — more than the
        # candidate volume of one in-memory re-join, which pays no job
        # overhead under algorithm="exact".
        members = [Multiset(f"m{index}", {"hot": 1, f"rare{index}": 2})
                   for index in range(40)]
        view = view_over(members, JoinSpec(threshold=0.9, algorithm="exact"))
        rewrite = ChangeBatch(
            tuple(Change.upsert(member.scaled(2)) for member in members))
        plan = view.decide(rewrite)
        assert plan.strategy == REJOIN
        assert plan.rejoin_seconds < plan.incremental_seconds
        assert plan.postings_to_scan > plan.candidate_records
        # auto acts on the decision.
        view.apply(rewrite)
        assert view.counters()["streaming/batches_rejoin"] == 1

    def test_distributed_rejoin_pays_job_overhead(self, overlapping_multisets):
        distributed = view_over(
            overlapping_multisets,
            JoinSpec(threshold=0.8, algorithm="online_aggregation"))
        sequential = view_over(overlapping_multisets,
                               JoinSpec(threshold=0.8, algorithm="exact"))
        batch = ChangeBatch.of(Change.delete("a"))
        assert distributed.decide(batch).rejoin_seconds \
            > sequential.decide(batch).rejoin_seconds


# ---------------------------------------------------------------------------
# Streaming into the serving layer
# ---------------------------------------------------------------------------


class TestServingSubscriber:
    def synced_pair(self, multisets, num_shards=2, threshold=0.4):
        spec = JoinSpec(threshold=threshold, algorithm="exact")
        view = view_over(multisets, spec)
        service = unreplicated_fleet(view.measure.name, num_shards,
                                     cache_capacity=max(
                                         1024, len(multisets) * 4))
        subscription = attach_serving(view, service)
        return view, service, subscription

    def assert_member_queries_warmed(self, view, service, threshold):
        fresh = unreplicated_fleet(view.measure.name, service.num_shards)
        fresh.bulk_load(view.members())
        hits_before = service.stats()["cache/hits"]
        for member in view.members():
            request = QueryRequest.threshold(member, threshold)
            warmed = service.query(request).matches
            expected = fresh.query(request).matches
            assert [(m.multiset_id, m.similarity) for m in warmed] \
                == [(m.multiset_id, pytest.approx(m.similarity))
                    for m in expected]
        hits = service.stats()["cache/hits"] - hits_before
        assert hits == len(view.members()) * service.num_shards

    def test_attach_loads_and_warms(self, small_multisets):
        view, service, _ = self.synced_pair(small_multisets)
        assert len(service) == len(small_multisets)
        self.assert_member_queries_warmed(view, service, 0.4)

    def test_batches_keep_the_fleet_in_sync(self, small_multisets):
        view, service, _ = self.synced_pair(small_multisets)
        stream = generate_mutation_stream(
            small_multisets, MutationStreamConfig(num_batches=3, batch_size=6,
                                                  seed=17))
        for batch in stream:
            view.apply(batch)
        assert len(service) == view.num_members
        self.assert_member_queries_warmed(view, service, 0.4)

    def test_single_node_target(self, overlapping_multisets):
        spec = JoinSpec(threshold=0.8, algorithm="exact")
        view = view_over(overlapping_multisets, spec)
        node = ServingNode("ruzicka", cache_capacity=64)
        attach_serving(view, node)
        view.delete("b")
        hits_before = node.cache_hits
        matches = node.query(
            QueryRequest.threshold(overlapping_multisets[3], 0.8)).matches
        assert {m.multiset_id for m in matches} == {"d", "e"}
        assert node.cache_hits == hits_before + 1

    def test_detach_stops_following(self, overlapping_multisets):
        view, service, subscription = self.synced_pair(overlapping_multisets)
        subscription.detach()
        view.delete("b")
        assert "b" in service and "b" not in view

    def test_measure_mismatch_rejected(self, overlapping_multisets):
        view = view_over(overlapping_multisets)
        with pytest.raises(StreamingError, match="measure"):
            attach_serving(view, ServingNode("jaccard"))

    def test_stop_word_target_cannot_be_warmed(self, overlapping_multisets):
        view = view_over(overlapping_multisets)
        pruning = ServingNode("ruzicka", stop_word_frequency=3)
        with pytest.raises(StreamingError, match="stop-word"):
            attach_serving(view, pruning)
        # warm=False keeps the combination available (no cache seeding).
        attach_serving(view, pruning, warm=False)
        assert len(pruning) == len(view.members())

    def test_preloaded_target_must_match_the_view(self, overlapping_multisets):
        view = view_over(overlapping_multisets)
        mismatched = ServingNode("ruzicka")
        mismatched.add(Multiset("stranger", {"x": 1}))
        with pytest.raises(StreamingError, match="exactly"):
            attach_serving(view, mismatched)
        # Same identifiers but stale contents are just as wrong: the target
        # would serve answers disagreeing with the view once its caches go.
        stale = ServingNode("ruzicka")
        stale.bulk_load(overlapping_multisets)
        stale.add(overlapping_multisets[0].scaled(3), replace=True)
        with pytest.raises(StreamingError, match="contents"):
            attach_serving(view, stale)
        # A faithfully pre-loaded target attaches fine.
        loaded = ServingNode("ruzicka")
        loaded.bulk_load(overlapping_multisets)
        attach_serving(view, loaded)
        assert len(loaded) == len(overlapping_multisets)

    def test_non_serving_target_rejected(self, overlapping_multisets):
        view = view_over(overlapping_multisets)
        with pytest.raises(StreamingError, match="targets"):
            attach_serving(view, object())


# ---------------------------------------------------------------------------
# The mutation-stream generator
# ---------------------------------------------------------------------------


class TestMutationStream:
    def test_deterministic(self, small_multisets):
        config = MutationStreamConfig(num_batches=4, batch_size=10, seed=3)
        assert generate_mutation_stream(small_multisets, config) \
            == generate_mutation_stream(small_multisets, config)

    def test_stream_is_internally_consistent(self, small_multisets):
        stream = generate_mutation_stream(
            small_multisets,
            MutationStreamConfig(num_batches=6, batch_size=12,
                                 update_fraction=0.3, insert_fraction=0.2,
                                 delete_fraction=0.5, seed=9))
        live = {member.id for member in small_multisets}
        for batch in stream:
            for change in batch:
                if change.kind == DELETE:
                    assert change.target in live
                    live.discard(change.target)
                else:
                    live.add(change.target)
            assert live  # the live set never empties
        assert sum(len(batch) for batch in stream) == 72

    def test_update_targets_are_zipf_skewed(self, small_multisets):
        stream = generate_mutation_stream(
            small_multisets,
            MutationStreamConfig(num_batches=10, batch_size=30,
                                 update_fraction=1.0, insert_fraction=0.0,
                                 delete_fraction=0.0, zipf_exponent=1.5,
                                 seed=5))
        targets = [change.target for batch in stream for change in batch]
        frequencies = sorted(
            (targets.count(identifier) for identifier in set(targets)),
            reverse=True)
        # The hot head absorbs a disproportionate share of the updates.
        assert frequencies[0] > len(targets) / len(small_multisets) * 3

    def test_inserts_use_fresh_identifiers(self, small_multisets):
        stream = generate_mutation_stream(
            small_multisets,
            MutationStreamConfig(num_batches=3, batch_size=10,
                                 update_fraction=0.0, insert_fraction=1.0,
                                 delete_fraction=0.0, seed=2))
        existing = {member.id for member in small_multisets}
        inserted = [change.target for batch in stream for change in batch]
        assert len(set(inserted)) == len(inserted)
        assert not (set(inserted) & existing)

    def test_invalid_parameters_rejected(self, small_multisets):
        with pytest.raises(DatasetError):
            generate_mutation_stream([], MutationStreamConfig())
        with pytest.raises(DatasetError):
            MutationStreamConfig(num_batches=-1)
        with pytest.raises(DatasetError):
            MutationStreamConfig(batch_size=0)
        with pytest.raises(DatasetError):
            MutationStreamConfig(update_fraction=0.9)
        with pytest.raises(DatasetError):
            MutationStreamConfig(update_fraction=-0.2, insert_fraction=0.6,
                                 delete_fraction=0.6)
        with pytest.raises(DatasetError):
            MutationStreamConfig(zipf_exponent=0.0)

    def test_stream_applies_cleanly_to_a_view(self, small_multisets):
        view = view_over(small_multisets)
        for batch in generate_mutation_stream(
                small_multisets, MutationStreamConfig(num_batches=4,
                                                      batch_size=8, seed=21)):
            view.apply(batch)
        assert view.num_members > 0


# ---------------------------------------------------------------------------
# The stateful parity machine (the test-archetype centerpiece)
# ---------------------------------------------------------------------------


class JoinViewParityMachine(RuleBasedStateMachine):
    """Arbitrary interleaved mutation streams keep the view exact.

    Every example draws one ``join_grid`` cell (measure × algorithm ×
    backend × threshold × initial corpus), then interleaves single-change
    and mixed-batch applications under all three strategies (``rejoin``
    re-runs the cell's algorithm on its backend).  After every step:

    * the view's pair map equals the dict-kernel oracle over the mutated
      corpus (pair sets exactly, scores to float tolerance);
    * a replica maintained only from the emitted deltas equals the view's
      pair map exactly — the delta stream alone reconstructs the result.
    """

    def __init__(self):
        super().__init__()
        self.engine = None
        self.view = None
        self.cell = None
        self.model: dict = {}
        self.replica: dict = {}

    @initialize(cell=join_grid(
        measures=("ruzicka", "jaccard", "vector_cosine", "dice"),
        algorithms=("exact", "online_aggregation", "sharding"),
        thresholds=(0.3, 0.5, 0.8)))
    def setup(self, cell):
        corpus = cell.corpus(count=5, alphabet_size=8, max_elements=5)
        self.cell = cell
        self.engine = SimilarityEngine(cluster=laptop_cluster(num_machines=3),
                                       backend=cell.backend)
        self.view = self.engine.materialize(cell.spec(), corpus)
        self.model = {member.id: member for member in corpus}
        self.replica = self.view.pairs()

    def teardown(self):
        if self.engine is not None:
            self.engine.close()

    def _record(self, changes, deltas):
        for change in changes:
            if change.kind == DELETE:
                del self.model[change.target]
            else:
                self.model[change.target] = change.multiset
        apply_deltas(self.replica, deltas)

    @rule(data=st.data(), contents=CONTENTS, strategy=STRATEGIES)
    def upsert(self, data, contents, strategy):
        target = data.draw(st.sampled_from(MACHINE_IDS), label="upsert target")
        change = Change.upsert(Multiset(target, contents))
        deltas = self.view.apply(ChangeBatch.of(change), strategy=strategy)
        self._record([change], deltas)

    @precondition(lambda self: len(self.model) > 1)
    @rule(data=st.data(), strategy=STRATEGIES)
    def delete(self, data, strategy):
        target = data.draw(st.sampled_from(sorted(self.model)),
                           label="delete target")
        deltas = self.view.apply(ChangeBatch.of(Change.delete(target)),
                                 strategy=strategy)
        self._record([Change.delete(target)], deltas)

    @rule(data=st.data(), strategy=STRATEGIES)
    def apply_mixed_batch(self, data, strategy):
        live = set(self.model)
        changes = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=4),
                                 label="batch size")):
            if len(live) > 1 and data.draw(st.booleans(), label="delete?"):
                target = data.draw(st.sampled_from(sorted(live)),
                                   label="batch delete target")
                changes.append(Change.delete(target))
                live.discard(target)
            else:
                target = data.draw(st.sampled_from(MACHINE_IDS),
                                   label="batch upsert target")
                contents = data.draw(CONTENTS, label="batch contents")
                changes.append(Change.upsert(Multiset(target, contents)))
                live.add(target)
        deltas = self.view.apply(ChangeBatch(changes), strategy=strategy)
        self._record(changes, deltas)

    @invariant()
    def parity_with_fresh_rejoin(self):
        if self.view is None:
            return
        got = self.view.pairs()
        assert_matches_oracle(got, list(self.model.values()),
                              self.cell.measure, self.cell.threshold)
        # The delta stream alone reconstructs the view's state, exactly.
        assert self.replica == got
        assert {member.id for member in self.view.members()} \
            == set(self.model)


JoinViewParityMachine.TestCase.settings = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.filter_too_much])
TestJoinViewParity = JoinViewParityMachine.TestCase
