"""The durable persistence tier: engine, codecs, stores and crash recovery.

The contract under test everywhere here is *exactness*: whatever goes into
a storage file comes back equal — dictionaries with their ids, indexes
with their maintained structures (and therefore identical query answers),
results with their pair order, and views whose snapshot + mutation-log
recovery lands on the bit-identical pair set an uninterrupted replica
holds.  The stateful machine at the bottom drives that last property
through arbitrary interleavings of mutation batches and simulated
crashes.
"""

from __future__ import annotations

import math
import os
import shutil
import sqlite3
import tarfile
import tempfile

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

from repro import (
    JoinResult,
    JoinSpec,
    JoinView,
    Multiset,
    ResultStore,
    SimilarityEngine,
    SimilarityIndex,
    StorageEngine,
    StoredPairSequence,
    ViewStore,
    bootstrap_from_join,
    join,
)
from repro.core.exceptions import StorageError
from repro.core.interning import ElementDictionary
from repro.serving.api import QueryRequest
from repro.serving.node import ServingNode
from repro.storage import (
    SCHEMA_VERSION,
    decode_value,
    encode_value,
    load_dictionary,
    load_index,
    save_dictionary,
    save_index,
)
from repro.storage.codecs import describe_spec, spec_from_description
from repro.streaming.changes import Change, ChangeBatch
from repro.streaming.view import INCREMENTAL
from tests.conftest import assert_matches_oracle, make_random_multisets

#: Fixed universes for the crash-recovery machine, mirroring the streaming
#: parity machine: small enough that replaces and shared elements are common.
MACHINE_IDS = tuple(f"s{index}" for index in range(8))
MACHINE_ALPHABET = tuple(f"e{index}" for index in range(8))
CONTENTS = st.dictionaries(st.sampled_from(MACHINE_ALPHABET),
                           st.integers(min_value=1, max_value=4),
                           max_size=5)


#: Stores written by release 2.3.0 (the parent commit of the ``intern=``
#: removal), once with ``intern=True`` and once with ``intern=False``:
#: ``index-*`` is ``corpus(seed=11)`` bulk-loaded, its first member removed
#: and ``FRESH`` added, then saved; ``view-*`` is ``make_view()`` persisted
#: with ``snapshot_every=2`` and driven through ``BATCHES`` (a snapshot at
#: version 2 plus one logged batch); ``result-*`` is the ``joined`` join.
STORES_2_3 = os.path.join(os.path.dirname(__file__), "data",
                          "stores-2.3.tar.gz")
FRESH = Multiset("fresh", {"e0": 2, "zz": 1})


def corpus(count=10, seed=3):
    return make_random_multisets(count, alphabet_size=15, max_elements=8,
                                 seed=seed)


def strip_stored_interner(path):
    """Rewrite a saved index into the layout 2.3.0 gave an un-interned one."""
    raw = sqlite3.connect(path)
    with raw:
        raw.execute("DELETE FROM index_interned")
        raw.execute("INSERT OR REPLACE INTO meta VALUES ('index', 'intern', '0')")
    raw.close()


def probes(queries):
    """Threshold and top-k requests over ``queries`` plus one stranger."""
    stranger = Multiset("stranger", {"never-indexed": 1, "e0": 1})
    return [request for query in [*queries, stranger]
            for request in (QueryRequest.threshold(query.with_id("q"), 0.3),
                            QueryRequest.topk(query.with_id("q"), 4))]


# ---------------------------------------------------------------------------
# StorageEngine
# ---------------------------------------------------------------------------

class TestStorageEngine:
    def test_connect_applies_the_discipline_pragmas(self, storage_path):
        with StorageEngine(storage_path) as engine:
            assert engine.query_one("PRAGMA journal_mode")[0] == "wal"
            assert engine.query_one("PRAGMA foreign_keys")[0] == 1
            assert engine.query_one("PRAGMA synchronous")[0] == 1  # NORMAL
            assert engine.query_one("PRAGMA busy_timeout")[0] == 30_000
            assert engine.schema_version == SCHEMA_VERSION

    def test_reopen_preserves_schema_and_data(self, storage_path):
        with StorageEngine(storage_path) as engine:
            with engine.transaction():
                engine.set_meta("store", "probe", "42")
        with StorageEngine(storage_path) as engine:
            assert engine.schema_version == SCHEMA_VERSION
            assert engine.get_meta("store", "probe") == "42"
            assert engine.get_meta("store", "absent") is None
            assert engine.meta_section("store") == {"probe": "42"}

    def test_transaction_rolls_back_on_exception(self, storage_path):
        with StorageEngine(storage_path) as engine:
            with pytest.raises(RuntimeError):
                with engine.transaction():
                    engine.set_meta("store", "doomed", "1")
                    raise RuntimeError("boom")
            assert engine.get_meta("store", "doomed") is None

    def test_nested_transactions_join_the_outer(self, storage_path):
        with StorageEngine(storage_path) as engine:
            with engine.transaction():
                engine.set_meta("store", "outer", "1")
                with engine.transaction():
                    engine.set_meta("store", "inner", "2")
            assert engine.meta_section("store") == {"outer": "1",
                                                    "inner": "2"}

    def test_uncommitted_writes_are_invisible_to_other_connections(
            self, storage_path):
        with StorageEngine(storage_path) as writer:
            with writer.transaction():
                writer.set_meta("store", "pending", "1")
                with StorageEngine(storage_path) as reader:
                    assert reader.get_meta("store", "pending") is None
            with StorageEngine(storage_path) as reader:
                assert reader.get_meta("store", "pending") == "1"

    def test_refuses_databases_from_a_newer_release(self, storage_path):
        with StorageEngine(storage_path):
            pass
        raw = sqlite3.connect(storage_path)
        raw.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 7}")
        raw.close()
        with pytest.raises(StorageError, match="newer"):
            StorageEngine(storage_path)

    def test_closed_engine_raises_not_crashes(self, storage_path):
        engine = StorageEngine(storage_path)
        engine.close()
        engine.close()  # idempotent
        with pytest.raises(StorageError, match="closed"):
            engine.query("SELECT 1")

    def test_unopenable_path_raises_storage_error(self, tmp_path):
        with pytest.raises(StorageError, match="cannot open"):
            StorageEngine(str(tmp_path / "no" / "such" / "dir" / "x.sqlite"))


# ---------------------------------------------------------------------------
# The tagged value codec
# ---------------------------------------------------------------------------

class TestValueCodec:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -17, 10**40, 0.5, -1e-300, float("inf"),
        "", "ip-1", "ünïcødé", b"", b"\x00\xff\x7f",
        (), ("a", 3, None), (("nested",), (1.5, b"x")),
        frozenset(), frozenset({1, "x", (2.5, None)}),
    ])
    def test_round_trips_exactly(self, value):
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_nan_round_trips(self):
        assert math.isnan(decode_value(encode_value(float("nan"))))

    def test_bool_does_not_collapse_into_int(self):
        assert decode_value(encode_value(True)) is True
        assert decode_value(encode_value(1)) == 1
        assert encode_value(True) != encode_value(1)

    def test_equal_frozensets_encode_identically(self):
        a = frozenset(["x", "y", "z"])
        b = frozenset(["z", "x", "y"])
        assert encode_value(a) == encode_value(b)

    @pytest.mark.parametrize("value", [[1, 2], {"a": 1}, {1, 2}, object()])
    def test_unstorable_values_fail_at_save_time(self, value):
        with pytest.raises(StorageError, match="cannot persist"):
            encode_value(value)

    @pytest.mark.parametrize("text", ["not json", "{}", "[]", '["?",1]'])
    def test_corrupted_encodings_raise(self, text):
        with pytest.raises(StorageError):
            decode_value(text)


# ---------------------------------------------------------------------------
# Dictionary and spec codecs
# ---------------------------------------------------------------------------

class TestDictionaryPersistence:
    def test_round_trips_ids_and_frequencies(self, storage_path):
        dictionary = ElementDictionary.from_multisets(corpus())
        save_dictionary(storage_path, dictionary)
        loaded = load_dictionary(storage_path)
        assert loaded.to_records() == dictionary.to_records()
        assert len(loaded) == len(dictionary)

    def test_loading_an_empty_database_raises(self, storage_path):
        with StorageEngine(storage_path):
            pass
        with pytest.raises(StorageError, match="no element dictionary"):
            load_dictionary(storage_path)


class TestSpecDescription:
    def test_round_trips_every_persisted_field(self):
        spec = JoinSpec(measure="jaccard", threshold=0.35,
                        algorithm="sharding", sharding_threshold=77,
                        chunk_size=50, use_combiners=False,
                        prune_candidates=False, vcl_element_order="hash")
        restored = spec_from_description(describe_spec(spec))
        assert restored == spec

    def test_session_infrastructure_is_not_persisted(self, test_cluster):
        spec = JoinSpec(cluster=test_cluster, backend="process",
                        enforce_budgets=True)
        restored = spec_from_description(describe_spec(spec))
        assert restored.cluster is None
        assert restored.backend is None
        assert restored.enforce_budgets is None
        assert restored.threshold == spec.threshold

    def test_corrupted_description_raises(self):
        with pytest.raises(StorageError, match="not valid JSON"):
            spec_from_description("{nope")

    @pytest.mark.parametrize("text", [
        pytest.param("[1]", id="list"),
        pytest.param('"x"', id="string"),
        pytest.param("null", id="null"),
        pytest.param('{"no_such_field": 1}', id="unknown-field"),
        pytest.param('{"threshold": 7}', id="threshold-out-of-range"),
        pytest.param('{"algorithm": "magic"}', id="unknown-algorithm"),
        pytest.param('{"minhash_parameters": 5}', id="banding-not-a-mapping"),
        pytest.param('{"minhash_parameters": {"num_bands": 0, '
                     '"rows_per_band": 1}}', id="banding-out-of-range"),
    ])
    def test_damaged_description_raises_naming_the_store(self, text):
        with pytest.raises(StorageError, match="'views/a.sqlite'"):
            spec_from_description(text, "views/a.sqlite")

    @pytest.mark.parametrize("flag", ["true", "false"])
    def test_legacy_intern_field_is_dropped(self, flag):
        # Every store written up to 2.3.0 carries the removed field.
        described = describe_spec(JoinSpec(threshold=0.35))
        legacy = described.replace("{", '{"intern": %s, ' % flag, 1)
        assert spec_from_description(legacy) == JoinSpec(threshold=0.35)


# ---------------------------------------------------------------------------
# SimilarityIndex save/load
# ---------------------------------------------------------------------------

class TestIndexPersistence:
    @pytest.mark.parametrize("measure", ["ruzicka", "jaccard", "dice",
                                         "vector_cosine"])
    @pytest.mark.parametrize("stored_interner", [True, False])
    def test_loaded_index_is_structurally_identical(self, storage_path,
                                                    measure, stored_interner):
        """``stored_interner=False`` is the snapshot layout of the
        un-interned index of releases up to 2.3.0: no dense-id table."""
        index = SimilarityIndex(measure)
        index.bulk_load(corpus(seed=11))
        index.save(storage_path)
        if not stored_interner:
            strip_stored_interner(storage_path)
        loaded = SimilarityIndex.load(storage_path)
        assert loaded._multisets == index._multisets
        assert loaded._uni == index._uni  # bit-exact Uni partials
        assert loaded._postings == index._postings
        assert loaded.version == index.version
        assert loaded.stop_word_frequency == index.stop_word_frequency
        assert list(loaded._interner.items()) == list(index._interner.items())

    @pytest.mark.parametrize("stored_interner", [True, False])
    def test_loaded_index_answers_queries_identically(self, storage_path,
                                                      stored_interner):
        index = SimilarityIndex("ruzicka")
        members = corpus(count=15, seed=23)
        index.bulk_load(members)
        index.remove(members[1].id)  # dict order now differs from id order
        index.add(members[1])
        index.save(storage_path)
        if not stored_interner:
            strip_stored_interner(storage_path)
        loaded = SimilarityIndex.load(storage_path)
        for request in probes(members[:5]):
            assert loaded.query(request) == index.query(request)

    def test_loaded_index_keeps_accepting_writes(self, storage_path):
        index = SimilarityIndex("ruzicka")
        members = corpus(seed=5)
        index.bulk_load(members)
        index.save(storage_path)
        loaded = SimilarityIndex.load(storage_path)
        newcomer = Multiset("fresh", {"e0": 2, "zz": 1})
        index.add(newcomer)
        loaded.add(newcomer)
        assert loaded._postings == index._postings
        assert loaded._uni == index._uni
        loaded.remove(members[0].id)
        index.remove(members[0].id)
        assert loaded._postings == index._postings

    def test_save_replaces_the_previous_index(self, storage_path):
        first = SimilarityIndex("ruzicka")
        first.bulk_load(corpus(seed=1))
        first.save(storage_path)
        second = SimilarityIndex("jaccard")
        second.bulk_load(corpus(count=3, seed=2))
        second.save(storage_path)
        loaded = SimilarityIndex.load(storage_path)
        assert loaded.measure.name == "jaccard"
        assert loaded._multisets == second._multisets

    def test_stop_word_frequency_survives(self, storage_path):
        index = SimilarityIndex("ruzicka", stop_word_frequency=3)
        index.bulk_load(corpus(seed=9))
        index.save(storage_path)
        assert SimilarityIndex.load(storage_path).stop_word_frequency == 3

    def test_loading_a_database_without_an_index_raises(self, storage_path):
        with StorageEngine(storage_path):
            pass
        with pytest.raises(StorageError, match="no similarity index"):
            load_index(storage_path)

    def test_unstorable_member_fails_at_save_time(self, storage_path):
        index = SimilarityIndex("ruzicka")
        index.add(Multiset(("ok",), {("el", 1): 2}))
        index.save(storage_path)  # tuples are storable
        bad = SimilarityIndex("ruzicka")

        class Odd:
            def __hash__(self):
                return 7

        bad.add(Multiset("m", {Odd(): 1}))
        with pytest.raises(StorageError, match="cannot persist"):
            save_index(storage_path, bad)

    def test_serving_node_persist_round_trips(self, storage_path):
        node = ServingNode("ruzicka", name="n0")
        members = corpus(seed=31)
        node.bulk_load(members)
        node.persist(storage_path)
        restarted = ServingNode("ruzicka", name="n0-restarted")
        restarted.index = SimilarityIndex.load(storage_path)
        for query in members[:3]:
            request = QueryRequest.threshold(query, 0.4)
            assert restarted.query(request) == node.query(request)


# ---------------------------------------------------------------------------
# ViewStore: snapshot + mutation log + recovery
# ---------------------------------------------------------------------------

def make_view(threshold=0.3, measure="ruzicka", seed=3, count=10):
    spec = JoinSpec(measure=measure, threshold=threshold, algorithm="exact")
    return JoinView(spec, corpus(count=count, seed=seed))


BATCHES = [
    ChangeBatch.of(Change.upsert(Multiset("m3", {"e0": 5, "e9": 1}))),
    ChangeBatch.of(Change.delete("m7"),
                   Change.upsert(Multiset("new-1", {"e1": 2, "e2": 2}))),
    ChangeBatch.of(Change.upsert(Multiset("m0", {"eX": 1}))),
]


class TestViewStore:
    def test_recover_replays_to_the_exact_pair_set(self, storage_path):
        view, replica = make_view(), make_view()
        subscription = view.persist(storage_path)
        for batch in BATCHES:
            view.apply(batch, strategy=INCREMENTAL)
            replica.apply(batch, strategy=INCREMENTAL)
        expected = view.pairs()
        del view  # the crash: nothing survives but the file
        recovered = JoinView.recover(storage_path)
        assert recovered.pairs() == expected  # bit-identical, == not approx
        assert recovered.pairs() == replica.pairs()
        assert recovered.version == replica.version
        assert {m.id for m in recovered.members()} \
            == {m.id for m in replica.members()}
        assert subscription.active
        subscription.detach()
        assert not subscription.active

    def test_recovered_view_keeps_maintaining(self, storage_path):
        view, replica = make_view(), make_view()
        view.persist(storage_path)
        view.apply(BATCHES[0], strategy=INCREMENTAL)
        replica.apply(BATCHES[0], strategy=INCREMENTAL)
        recovered = JoinView.recover(storage_path)
        for batch in BATCHES[1:]:
            recovered.apply(batch, strategy=INCREMENTAL)
            replica.apply(batch, strategy=INCREMENTAL)
        assert recovered.pairs() == replica.pairs()

    def test_snapshot_every_folds_the_log(self, storage_path):
        view = make_view()
        subscription = view.persist(storage_path, snapshot_every=2)
        with ViewStore(storage_path) as store:
            for batch in BATCHES:
                view.apply(batch, strategy=INCREMENTAL)
            # Three batches, folded at the second: at most one residual.
            assert len(store.log_batches()) == 1
            assert store.load().pairs() == view.pairs()
        subscription.detach()

    def test_detach_stops_logging(self, storage_path):
        view = make_view()
        subscription = view.persist(storage_path)
        view.apply(BATCHES[0], strategy=INCREMENTAL)
        durable_pairs = view.pairs()
        subscription.detach()
        subscription.detach()  # idempotent
        view.apply(BATCHES[1], strategy=INCREMENTAL)  # not logged
        assert JoinView.recover(storage_path).pairs() == durable_pairs

    def test_rejoin_applied_batches_recover_identically(self, storage_path):
        # The log replays incrementally even for batches originally applied
        # through the re-join strategy — the two are bit-identical.
        view, replica = make_view(), make_view()
        subscription = view.persist(storage_path)
        view.apply(BATCHES[0], strategy="rejoin")
        replica.apply(BATCHES[0], strategy="rejoin")
        subscription.detach()
        assert JoinView.recover(storage_path).pairs() == replica.pairs()

    def test_gap_in_the_log_is_refused(self, storage_path):
        view = make_view()
        subscription = view.persist(storage_path)
        for batch in BATCHES:
            view.apply(batch, strategy=INCREMENTAL)
        subscription.detach()
        with StorageEngine(storage_path) as engine:
            with engine.transaction():
                engine.execute("DELETE FROM mutation_log WHERE batch_seq = 2")
        with pytest.raises(StorageError, match="not contiguous"):
            JoinView.recover(storage_path)

    def test_recovering_a_database_without_a_view_raises(self, storage_path):
        with StorageEngine(storage_path):
            pass
        with pytest.raises(StorageError, match="no join view"):
            JoinView.recover(storage_path)

    def test_bad_snapshot_every_is_rejected(self, storage_path):
        with pytest.raises(StorageError, match="snapshot_every"):
            make_view().persist(storage_path, snapshot_every=0)


# ---------------------------------------------------------------------------
# ResultStore and lazy pair iteration
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def joined():
    spec = JoinSpec(measure="ruzicka", threshold=0.25, algorithm="exact")
    with SimilarityEngine() as engine:
        return engine.run(spec, corpus(count=20, seed=13))


class TestResultStore:
    def test_sqlite_round_trip_preserves_everything_relevant(
            self, joined, storage_path):
        written = joined.to_sqlite(storage_path)
        assert written == len(joined.pairs) > 0
        loaded = JoinResult.from_sqlite(storage_path)
        assert list(loaded.pairs) == list(joined.pairs)  # order + scores
        assert loaded.spec == joined.spec
        assert loaded.algorithm == joined.algorithm
        assert [m.id for m in loaded.multisets] \
            == [m.id for m in joined.multisets]
        assert loaded.multisets == joined.multisets
        assert loaded.simulated_seconds == 0.0

    def test_lazy_pairs_stream_without_materializing(self, joined,
                                                     storage_path):
        joined.to_sqlite(storage_path)
        loaded = JoinResult.from_sqlite(storage_path)
        pairs = loaded.pairs
        assert isinstance(pairs, StoredPairSequence)
        assert len(pairs) == len(joined.pairs)
        assert pairs[0] == joined.pairs[0]
        assert pairs[-1] == joined.pairs[-1]
        assert pairs[1:3] == joined.pairs[1:3]
        with pytest.raises(IndexError):
            pairs[len(pairs)]
        assert pairs == joined.pairs  # sequence equality, both ways
        assert joined.pairs[2] in list(pairs)
        # Partial iteration then a fresh full pass: independent cursors.
        iterator = iter(pairs)
        next(iterator)
        assert list(pairs) == joined.pairs

    def test_eager_load_returns_a_plain_list(self, joined, storage_path):
        joined.to_sqlite(storage_path)
        loaded = JoinResult.from_sqlite(storage_path, lazy=False)
        assert isinstance(loaded.pairs, list)
        assert loaded.pairs == joined.pairs

    def test_score_is_a_point_lookup(self, joined, storage_path):
        joined.to_sqlite(storage_path)
        with ResultStore(storage_path) as store:
            assert len(store) == len(joined.pairs)
            probe = joined.pairs[0]
            assert store.score(probe.first, probe.second) == probe.similarity
            # Order-insensitive, like JoinView.score.
            assert store.score(probe.second, probe.first) == probe.similarity
            assert store.score("nope-a", "nope-b") is None

    def test_loaded_result_feeds_the_serving_handoffs(self, joined,
                                                      storage_path):
        joined.to_sqlite(storage_path)
        loaded = JoinResult.from_sqlite(storage_path)
        index = loaded.to_index()
        assert len(index) == len(joined.multisets)
        view = loaded.to_view()
        assert view.pairs() == {pair.pair: pair.similarity
                                for pair in joined.pairs}

    def test_loading_a_database_without_a_result_raises(self, storage_path):
        with StorageEngine(storage_path):
            pass
        with pytest.raises(StorageError, match="no join result"):
            JoinResult.from_sqlite(storage_path)


class TestStoresWrittenBy23:
    """``STORES_2_3``: every store 2.3.0 wrote loads, with ``intern`` on or off."""

    @pytest.fixture
    def stores(self, tmp_path):
        with tarfile.open(STORES_2_3) as archive:
            archive.extractall(tmp_path, filter="data")
        return tmp_path

    @pytest.mark.parametrize("flavour", ["interned", "uninterned"])
    def test_index_snapshot_answers_like_a_fresh_index(self, stores, flavour):
        loaded = SimilarityIndex.load(str(stores / f"index-{flavour}.sqlite"))
        members = corpus(seed=11)
        fresh = SimilarityIndex("ruzicka")
        fresh.bulk_load(members)
        fresh.remove(members[0].id)
        fresh.add(FRESH)
        assert loaded._multisets == fresh._multisets
        assert loaded._uni == fresh._uni
        assert loaded.version == fresh.version
        for request in probes([*members, FRESH]):
            assert loaded.query(request) == fresh.query(request)
        newcomer = Multiset("later", {"e0": 1, "e3": 2, "unseen": 1})
        for index in (loaded, fresh):
            index.add(newcomer)
            index.remove(members[2].id)
        for request in probes([*members, newcomer]):
            assert loaded.query(request) == fresh.query(request)

    @pytest.mark.parametrize("flavour", ["interned", "uninterned"])
    def test_view_recovers_to_the_rejoin(self, stores, flavour):
        recovered = JoinView.recover(str(stores / f"view-{flavour}.sqlite"))
        replica = make_view()
        for batch in BATCHES:
            replica.apply(batch, strategy=INCREMENTAL)
        assert recovered.spec == replica.spec
        assert recovered.pairs() == replica.pairs()  # bit-identical
        assert recovered.version == replica.version == len(BATCHES)
        assert_matches_oracle(recovered.pairs(), list(recovered.members()),
                              "ruzicka", 0.3)
        later = ChangeBatch.of(Change.delete("m1"), Change.upsert(FRESH))
        assert recovered.apply(later, strategy=INCREMENTAL) \
            == replica.apply(later, strategy=INCREMENTAL)
        assert recovered.pairs() == replica.pairs()

    @pytest.mark.parametrize("flavour", ["interned", "uninterned"])
    def test_result_loads(self, stores, joined, flavour):
        loaded = JoinResult.from_sqlite(
            str(stores / f"result-{flavour}.sqlite"), lazy=False)
        assert loaded.spec == joined.spec
        assert loaded.pairs == joined.pairs
        assert loaded.multisets == joined.multisets


class TestBootstrapFromStorage:
    def test_bootstrap_accepts_a_stored_result_path(self, joined,
                                                    storage_path):
        joined.to_sqlite(storage_path)
        from_path = bootstrap_from_join(storage_path, num_shards=2)
        from_memory = bootstrap_from_join(joined.multisets, joined,
                                          num_shards=2)
        member = joined.multisets[0]
        request = QueryRequest.threshold(member, joined.spec.threshold)
        assert from_path.query(request) == from_memory.query(request)
        # The stored pairs warmed the caches: member queries never scan.
        assert from_path.stats()["cache/hits"] > 0

    def test_explicit_join_result_still_wins(self, joined, storage_path):
        joined.to_sqlite(storage_path)
        service = bootstrap_from_join(storage_path, joined)
        assert len(service) == len(joined.multisets)

    def test_run_join_from_a_path_recomputes(self, joined, storage_path):
        joined.to_sqlite(storage_path)
        stored = JoinResult.from_sqlite(storage_path)
        service = join(stored.multisets, algorithm="exact",
                       threshold=joined.spec.threshold).to_service()
        member = joined.multisets[0]
        expected = bootstrap_from_join(joined.multisets, joined)
        request = QueryRequest.threshold(member, joined.spec.threshold)
        assert service.query(request) == expected.query(request)


# ---------------------------------------------------------------------------
# Stateful crash recovery: mutations × crashes == uninterrupted replica
# ---------------------------------------------------------------------------

class CrashRecoveryMachine(RuleBasedStateMachine):
    """Interleave mutation batches with simulated crashes.

    ``durable`` is a view persisted through a :class:`ViewStore`;
    ``replica`` is an identical view that is never persisted and never
    crashes.  A crash discards the durable view object mid-stream (no
    clean shutdown, no final snapshot) and recovers from the file alone.
    The invariant demands *exact* equality — pair sets, scores
    (``==``, not approx) and versions — after every step, across
    measures.
    """

    def __init__(self):
        super().__init__()
        self.tmpdir = None
        self.durable = None
        self.replica = None
        self.subscription = None

    @initialize(measure=st.sampled_from(["ruzicka", "jaccard", "dice",
                                         "vector_cosine"]),
                threshold=st.sampled_from([0.3, 0.5, 0.8]),
                snapshot_every=st.sampled_from([None, 1, 2, 5]),
                seed=st.integers(min_value=0, max_value=10_000))
    def setup(self, measure, threshold, snapshot_every, seed):
        self.tmpdir = tempfile.mkdtemp(prefix="repro-storage-")
        self.path = os.path.join(self.tmpdir, "view.sqlite")
        initial = make_random_multisets(5, alphabet_size=8, max_elements=5,
                                        seed=seed)
        spec = JoinSpec(measure=measure, threshold=threshold,
                        algorithm="exact")
        self.durable = JoinView(spec, initial)
        self.replica = JoinView(spec, initial)
        self.subscription = self.durable.persist(
            self.path, snapshot_every=snapshot_every)
        self.snapshot_every = snapshot_every

    def teardown(self):
        if self.subscription is not None:
            self.subscription.detach()
        if self.tmpdir is not None:
            shutil.rmtree(self.tmpdir, ignore_errors=True)

    def _apply(self, batch):
        self.durable.apply(batch, strategy=INCREMENTAL)
        self.replica.apply(batch, strategy=INCREMENTAL)

    @rule(data=st.data(), contents=CONTENTS)
    def upsert(self, data, contents):
        target = data.draw(st.sampled_from(MACHINE_IDS), label="upsert target")
        self._apply(ChangeBatch.of(Change.upsert(Multiset(target, contents))))

    @precondition(lambda self: self.replica is not None
                  and self.replica.num_members > 1)
    @rule(data=st.data())
    def delete(self, data):
        live = sorted(member.id for member in self.replica.members())
        target = data.draw(st.sampled_from(live), label="delete target")
        self._apply(ChangeBatch.of(Change.delete(target)))

    @rule(data=st.data())
    def apply_mixed_batch(self, data):
        live = {member.id for member in self.replica.members()}
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
        self._apply(ChangeBatch(changes))

    @rule()
    def crash_and_recover(self):
        # A hard stop: the live view and its subscription object vanish
        # without any final snapshot; only the database file survives.
        self.subscription.detach()  # detach ≡ process death after last commit
        self.durable = None
        recovered = JoinView.recover(self.path)
        assert recovered.pairs() == self.replica.pairs()
        assert recovered.version == self.replica.version
        self.durable = recovered
        self.subscription = self.durable.persist(
            self.path, snapshot_every=self.snapshot_every)

    @invariant()
    def durable_is_bit_identical_to_the_replica(self):
        if self.durable is None:
            return
        assert self.durable.pairs() == self.replica.pairs()
        assert self.durable.version == self.replica.version
        assert {m.id for m in self.durable.members()} \
            == {m.id for m in self.replica.members()}


CrashRecoveryMachine.TestCase.settings = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.filter_too_much])
TestCrashRecovery = CrashRecoveryMachine.TestCase
