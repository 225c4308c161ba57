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
from typing import Callable, Hashable, Iterable

from repro.core.exceptions import ReproError, StorageError
from repro.core.interning import ElementDictionary
from repro.core.multiset import Multiset
from repro.storage.engine import StorageEngine, open_engine
from repro.storage.values import decode_value, encode_value, value_decoder

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
    return list(_members_by_seq(engine, store, value_decoder()).values())


def _members_by_seq(engine: StorageEngine, store: str,
                    decode: Callable[[str], Hashable]) -> dict[int, Multiset]:
    """The ``store`` corpus keyed by stored seq, in seq order."""
    ids = {seq: decode(member_id) for seq, member_id in engine.query(
        "SELECT seq, member_id FROM members WHERE store = ? ORDER BY seq",
        (store,))}
    contents: dict[int, list[tuple]] = {seq: [] for seq in ids}
    for seq, element, multiplicity in engine.query(
            "SELECT member_seq, element, multiplicity FROM member_elements "
            "WHERE store = ? ORDER BY member_seq, position", (store,)):
        contents[seq].append((decode(element), multiplicity))
    return {seq: Multiset(member_id, contents[seq])
            for seq, member_id in ids.items()}


# -- serving indexes ----------------------------------------------------------

def save_index(destination: str | os.PathLike | StorageEngine,
               index) -> None:
    """Persist a :class:`~repro.serving.index.SimilarityIndex` exactly.

    Stores the indexed multisets, the maintained ``Uni`` partials, the
    inverted postings (keyed by encoded element, in the index's order) and
    the index configuration.  One database holds one index; saving
    replaces any previous one and leaves ``index_interned``, the dense-id
    table releases up to 3.19 wrote, empty.
    """
    engine, owned = open_engine(destination)
    try:
        posting_rows: list[tuple] = []
        posting_seq = 0
        for element, postings in index._postings.items():
            encoded_element = encode_value(element)
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
    tuples, same postings in the same order — and keeps accepting writes
    from where the original left off.  Postings are read in
    ``posting_seq`` order and keyed by the decoded element.  Snapshots of
    an interned index (releases up to 3.19) also hold a dense-id table,
    ``index_interned``; it is not read, so they load as an un-interned
    index's snapshot does and as this release's do.
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
        # One decoder for the whole load: a postings key is the very
        # object the members hold.
        decode = value_decoder()
        members = _members_by_seq(engine, INDEX_STORE, decode)
        id_of_seq = {seq: member.id for seq, member in members.items()}
        index._multisets = {member.id: member for member in members.values()}
        index._uni = {}
        uni_parts: dict[int, list[float]] = {}
        for seq, position, value in engine.query(
                "SELECT member_seq, position, value FROM index_uni "
                "ORDER BY member_seq, position"):
            uni_parts.setdefault(seq, []).append(value)
        # seq order is member insertion order, like add() produces.
        for seq in sorted(uni_parts):
            index._uni[id_of_seq[seq]] = tuple(uni_parts[seq])
        postings: dict[object, dict] = {}
        for element, seq, effective in engine.query(
                "SELECT element, member_seq, effective FROM index_postings "
                "ORDER BY posting_seq"):
            postings.setdefault(decode(element), {})[
                id_of_seq[seq]] = effective
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
                "vcl_super_element_groups")

#: Fields of the approximate tier 3.11.0 and earlier stored; see
#: :func:`spec_from_description`.
_APPROXIMATE_FIELDS = ("recall", "minhash_parameters")


def describe_spec(spec) -> str:
    """Serialise a :class:`~repro.engine.spec.JoinSpec` to stored JSON."""
    from repro.similarity.registry import get_measure

    described = {field: getattr(spec, field) for field in _SPEC_FIELDS}
    described["measure"] = get_measure(spec.measure).name
    return json.dumps(described, sort_keys=True)


def stored_algorithm(algorithm):
    """The algorithm a stored spec or result names, as this version runs it.

    An algorithm an earlier version ran and this one replaced (3.19's
    ``ppjoin``) reads as its replacement: the stored pairs are the exact
    join, which the replacement computes too.
    """
    from repro.engine.spec import REPLACED_ALGORITHMS

    if isinstance(algorithm, str):
        return REPLACED_ALGORITHMS.get(algorithm, algorithm)
    return algorithm


def spec_from_description(text: str, store: str = "<description>"):
    """Rebuild a :class:`~repro.engine.spec.JoinSpec` from stored JSON.

    ``store`` names the database in the :class:`StorageError` every damaged
    description raises.  The ``intern`` field stores written up to 2.3.0
    carry is dropped: both of its values now mean the one interned form.
    So is a ``"recall": null`` (written up to 3.11.0): it demanded the
    exact join.  A recall target or MinHash banding is refused, because the
    stored pairs may be missing true ones.  A replaced algorithm reads as
    its replacement (:func:`stored_algorithm`).
    """
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
    if "algorithm" in described:
        described["algorithm"] = stored_algorithm(described["algorithm"])
    for field in _APPROXIMATE_FIELDS:
        if described.pop(field, None) is not None:
            raise StorageError(
                f"{store!r}: stored join spec sets {field!r}, an approximate "
                "join this version no longer loads; re-run the join with an "
                "exact algorithm")
    try:
        return JoinSpec(**described)
    except (TypeError, ValueError, ReproError) as error:
        raise StorageError(
            f"{store!r}: stored join spec is damaged: {error}") from None
