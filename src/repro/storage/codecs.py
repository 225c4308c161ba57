"""Persistence codecs: in-memory structures ⇄ storage-engine tables.

Each codec is a ``save_*`` / ``load_*`` pair over a
:class:`~repro.storage.engine.StorageEngine` (or a path, resolved through
:func:`~repro.storage.engine.open_engine`), parity-tested against the
in-memory originals:

* :func:`save_dictionary` / :func:`load_dictionary` — an
  :class:`~repro.core.interning.ElementDictionary` through its
  ``to_records`` rows (the document-frequency id order is the data);
* :func:`save_members` / :func:`load_members` — a corpus of
  :class:`~repro.core.multiset.Multiset`\\ s under a ``store``
  discriminator, preserving both corpus order and each multiset's element
  insertion order (query-time float accumulation follows element order, so
  preserving it is what makes reloaded answers *bit*-identical);
* :func:`save_index` / :func:`load_index` — a serving
  :class:`~repro.serving.index.SimilarityIndex` with its maintained
  ``Uni`` partials, inverted postings and the dense-id assignment, so a
  load restores the exact structures without recomputing anything.

Floats (similarities, ``Uni`` components, effective multiplicities) are
stored in ``REAL`` columns — IEEE doubles on both sides, so round-trips
are exact.  Identifiers and elements go through
:mod:`repro.storage.values`.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

from repro.core.exceptions import ReproError, StorageError
from repro.core.interning import ElementDictionary, LocalInterner
from repro.core.multiset import Multiset
from repro.storage.engine import StorageEngine, open_engine
from repro.storage.values import decode_value, encode_value

#: ``members.store`` discriminators.
INDEX_STORE = "index"
VIEW_STORE = "view"
RESULT_STORE = "result"


# -- element dictionaries -----------------------------------------------------

def save_dictionary(destination: str | os.PathLike | StorageEngine,
                    dictionary: ElementDictionary) -> None:
    """Persist an element dictionary (replacing any previously stored one)."""
    engine, owned = open_engine(destination)
    try:
        with engine.transaction():
            engine.execute("DELETE FROM dictionary_entries")
            engine.executemany(
                "INSERT INTO dictionary_entries "
                "(element_id, element, frequency) VALUES (?, ?, ?)",
                [(element_id, encode_value(element), frequency)
                 for element_id, element, frequency
                 in dictionary.to_records()])
            engine.set_meta("dictionary", "present", "1")
    finally:
        if owned:
            engine.close()


def load_dictionary(
        source: str | os.PathLike | StorageEngine) -> ElementDictionary:
    """Rebuild the stored element dictionary, ids and frequencies intact."""
    engine, owned = open_engine(source)
    try:
        if engine.get_meta("dictionary", "present") is None:
            raise StorageError(
                f"{engine.path!r} holds no element dictionary")
        rows = engine.query(
            "SELECT element_id, element, frequency FROM dictionary_entries "
            "ORDER BY element_id")
        return ElementDictionary.from_records(
            (element_id, decode_value(element), frequency)
            for element_id, element, frequency in rows)
    finally:
        if owned:
            engine.close()


# -- corpora ------------------------------------------------------------------

def save_members(engine: StorageEngine, store: str,
                 members: Iterable[Multiset]) -> int:
    """Replace the ``store`` corpus; caller supplies the transaction."""
    engine.execute("DELETE FROM members WHERE store = ?", (store,))
    engine.execute("DELETE FROM member_elements WHERE store = ?", (store,))
    count = 0
    element_rows: list[tuple] = []
    member_rows: list[tuple] = []
    for seq, multiset in enumerate(members):
        member_rows.append((store, seq, encode_value(multiset.id)))
        for position, (element, multiplicity) in enumerate(multiset.items()):
            element_rows.append(
                (store, seq, position, encode_value(element), multiplicity))
        count += 1
    engine.executemany(
        "INSERT INTO members (store, seq, member_id) VALUES (?, ?, ?)",
        member_rows)
    engine.executemany(
        "INSERT INTO member_elements "
        "(store, member_seq, position, element, multiplicity) "
        "VALUES (?, ?, ?, ?, ?)", element_rows)
    return count


def load_members(engine: StorageEngine, store: str) -> list[Multiset]:
    """Rebuild the ``store`` corpus in stored order, element order intact."""
    ids = {seq: decode_value(member_id) for seq, member_id in engine.query(
        "SELECT seq, member_id FROM members WHERE store = ? ORDER BY seq",
        (store,))}
    contents: dict[int, list[tuple]] = {seq: [] for seq in ids}
    for seq, element, multiplicity in engine.query(
            "SELECT member_seq, element, multiplicity FROM member_elements "
            "WHERE store = ? ORDER BY member_seq, position", (store,)):
        contents[seq].append((decode_value(element), multiplicity))
    return [Multiset(ids[seq], contents[seq]) for seq in sorted(ids)]


# -- serving indexes ----------------------------------------------------------

def save_index(destination: str | os.PathLike | StorageEngine,
               index) -> None:
    """Persist a :class:`~repro.serving.index.SimilarityIndex` exactly.

    Stores the indexed multisets, the maintained ``Uni`` partials, the
    inverted postings (keyed by encoded raw element; the dense-id keys are
    restored through the persisted interner) and the index configuration.
    One database holds one index; saving replaces any previous one.
    """
    engine, owned = open_engine(destination)
    try:
        encoded_of = {dense_id: encode_value(element)
                      for element, dense_id in index._interner.items()}
        posting_rows: list[tuple] = []
        posting_seq = 0
        for key, postings in index._postings.items():
            encoded_element = encoded_of[key]
            for member_id, effective in postings.items():
                posting_rows.append((posting_seq, encoded_element,
                                     encode_value(member_id), effective))
                posting_seq += 1
        with engine.transaction():
            seq_of = _replace_index_members(engine, index._multisets.values())
            engine.execute("DELETE FROM index_uni")
            engine.executemany(
                "INSERT INTO index_uni (member_seq, position, value) "
                "VALUES (?, ?, ?)",
                [(seq_of[encode_value(member_id)], position, value)
                 for member_id, partials in index._uni.items()
                 for position, value in enumerate(partials)])
            engine.execute("DELETE FROM index_interned")
            engine.executemany(
                "INSERT INTO index_interned (dense_id, element) VALUES (?, ?)",
                list(encoded_of.items()))
            engine.execute("DELETE FROM index_postings")
            engine.executemany(
                "INSERT INTO index_postings "
                "(posting_seq, element, member_seq, effective) "
                "VALUES (?, ?, ?, ?)",
                [(seq, element, seq_of[member], effective)
                 for seq, element, member, effective in posting_rows])
            engine.set_meta("index", "measure", index.measure.name)
            engine.set_meta("index", "stop_word_frequency",
                            None if index.stop_word_frequency is None
                            else str(index.stop_word_frequency))
            engine.set_meta("index", "version", str(index.version))
    finally:
        if owned:
            engine.close()


def _replace_index_members(engine: StorageEngine,
                           members: Iterable[Multiset]) -> dict[str, int]:
    """Write the index corpus; returns encoded member id → stored seq."""
    save_members(engine, INDEX_STORE, members)
    return {member_id: seq for seq, member_id in engine.query(
        "SELECT seq, member_id FROM members WHERE store = ?",
        (INDEX_STORE,))}


def load_index(source: str | os.PathLike | StorageEngine):
    """Rebuild the stored serving index without recomputing any structure.

    The loaded index answers every threshold/top-k query identically to
    the index :func:`save_index` was given — same members, same ``Uni``
    tuples, same postings, same interner state — and keeps accepting
    writes from where the original left off.  A snapshot of an un-interned
    index (an option up to 2.3.0) stores no dense-id table; its elements
    are interned as the postings are read, in ``posting_seq`` order, which
    is the order a fresh index assigns them.
    """
    from repro.serving.index import SimilarityIndex

    engine, owned = open_engine(source)
    try:
        meta = engine.meta_section("index")
        if "measure" not in meta:
            raise StorageError(f"{engine.path!r} holds no similarity index")
        stop_words = meta.get("stop_word_frequency")
        index = SimilarityIndex(
            meta["measure"],
            stop_word_frequency=None if stop_words is None else int(stop_words))
        members = load_members(engine, INDEX_STORE)
        id_of_seq = {seq: decode_value(member_id)
                     for seq, member_id in engine.query(
                         "SELECT seq, member_id FROM members WHERE store = ?",
                         (INDEX_STORE,))}
        index._multisets = {member.id: member for member in members}
        index._uni = {}
        uni_parts: dict[int, list[float]] = {}
        for seq, position, value in engine.query(
                "SELECT member_seq, position, value FROM index_uni "
                "ORDER BY member_seq, position"):
            uni_parts.setdefault(seq, []).append(value)
        # seq order is member insertion order, like add() produces.
        for seq in sorted(uni_parts):
            index._uni[id_of_seq[seq]] = tuple(uni_parts[seq])
        index._interner = LocalInterner.from_items(
            (decode_value(element), dense_id)
            for dense_id, element in engine.query(
                "SELECT dense_id, element FROM index_interned "
                "ORDER BY dense_id"))
        intern = index._interner.intern
        postings: dict[int, dict] = {}
        for element, seq, effective in engine.query(
                "SELECT element, member_seq, effective FROM index_postings "
                "ORDER BY posting_seq"):
            key = intern(decode_value(element))
            postings.setdefault(key, {})[id_of_seq[seq]] = effective
        index._postings = postings
        index._version = int(meta.get("version", "0"))
        return index
    finally:
        if owned:
            engine.close()


# -- join specs ---------------------------------------------------------------

#: JoinSpec fields the storage tier persists.  The session-infrastructure
#: fields (cluster, backend, cost_parameters, enforce_budgets) describe
#: *where* a join ran, not *what* it computed, and are not durable — a
#: loaded spec carries ``None`` for all four (= "use the session's").
_SPEC_FIELDS = ("threshold", "algorithm", "sharding_threshold",
                "stop_word_frequency", "chunk_size", "use_combiners",
                "prune_candidates", "vcl_element_order",
                "vcl_super_element_groups", "recall")


def describe_spec(spec) -> str:
    """Serialise a :class:`~repro.engine.spec.JoinSpec` to stored JSON."""
    from repro.similarity.registry import get_measure

    described = {field: getattr(spec, field) for field in _SPEC_FIELDS}
    described["measure"] = get_measure(spec.measure).name
    if spec.minhash_parameters is not None:
        described["minhash_parameters"] = {
            "num_bands": spec.minhash_parameters.num_bands,
            "rows_per_band": spec.minhash_parameters.rows_per_band}
    return json.dumps(described, sort_keys=True)


def spec_from_description(text: str, store: str = "<description>"):
    """Rebuild a :class:`~repro.engine.spec.JoinSpec` from stored JSON.

    ``store`` names the database in the :class:`StorageError` every damaged
    description raises.  The ``intern`` field stores written up to 2.3.0
    carry is dropped: both of its values now mean the one interned form.
    """
    from repro.baselines.minhash import LSHParameters
    from repro.engine.spec import JoinSpec

    try:
        described = json.loads(text)
    except (TypeError, ValueError) as error:
        raise StorageError(f"{store!r}: stored join spec is not valid JSON: "
                           f"{error}") from None
    if not isinstance(described, dict):
        raise StorageError(
            f"{store!r}: stored join spec must be a JSON object, got "
            f"{type(described).__name__}")
    described.pop("intern", None)
    banding = described.pop("minhash_parameters", None)
    try:
        if banding is not None:
            described["minhash_parameters"] = LSHParameters(**banding)
        return JoinSpec(**described)
    except (TypeError, ValueError, ReproError) as error:
        raise StorageError(
            f"{store!r}: stored join spec is damaged: {error}") from None


# -- pair maps ----------------------------------------------------------------

def encode_pair_rows(pairs: Iterable[tuple[tuple, float]]) -> list[tuple]:
    """``((first, second), similarity)`` pairs → encoded table rows."""
    return [(encode_value(first), encode_value(second), similarity)
            for (first, second), similarity in pairs]


def decode_pair_rows(rows: Sequence[tuple]) -> dict[tuple, float]:
    """Encoded table rows → a ``{(first, second): similarity}`` map."""
    return {(decode_value(first), decode_value(second)): similarity
            for first, second, similarity in rows}
