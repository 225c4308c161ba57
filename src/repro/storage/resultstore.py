"""Durable :class:`~repro.engine.result.JoinResult`\\ s with lazy pairs.

:class:`ResultStore` persists a finished join — spec, concrete algorithm,
joined corpus and the similar pairs in result order — and loads it back as
a :class:`~repro.engine.result.JoinResult` whose ``pairs`` is a
:class:`StoredPairSequence`: length and point lookups are SQL queries,
iteration streams rows from disk through a short-lived connection, and
nothing is materialized until asked for.  A billion-pair result can be
opened, measured (``len``) and point-queried (:meth:`ResultStore.score`)
without reading the pair table into memory.

The pipeline statistics of the original run are *not* persisted — they
describe one simulated execution, not the result — so a loaded result
reports zero simulated seconds and no job stats, exactly like an
in-memory exact join does.
"""

from __future__ import annotations

import os
from typing import Iterator, Sequence

from repro.core.exceptions import StorageError
from repro.core.records import SimilarPair, canonical_pair
from repro.storage.codecs import (
    RESULT_STORE,
    describe_spec,
    load_members,
    save_members,
    spec_from_description,
    stored_algorithm,
)
from repro.storage.engine import StorageEngine, open_engine
from repro.storage.values import decode_value, encode_value


class ResultStore:
    """The durable home of one :class:`~repro.engine.result.JoinResult`.

    Parameters
    ----------
    destination:
        Database path (opened, and closed again by :meth:`close`) or an
        already-open :class:`StorageEngine` (borrowed).
    """

    def __init__(self,
                 destination: str | os.PathLike | StorageEngine) -> None:
        self._engine, self._owned = open_engine(destination)

    # -- lifecycle -----------------------------------------------------------

    @property
    def engine(self) -> StorageEngine:
        """The underlying storage engine."""
        return self._engine

    def close(self) -> None:
        """Close the engine if this store opened it."""
        if self._owned:
            self._engine.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- persistence ---------------------------------------------------------

    def save(self, result) -> int:
        """Persist a join result (replacing any previously stored one).

        Stores the spec, the concrete algorithm, the joined corpus and the
        pairs in result order; returns the pair count.  One transaction —
        a crash mid-save leaves the previous stored result intact.
        """
        engine = self._engine
        rows = [(seq, encode_value(pair.first), encode_value(pair.second),
                 pair.similarity)
                for seq, pair in enumerate(result.pairs)]
        with engine.transaction():
            save_members(engine, RESULT_STORE, result.multisets)
            engine.execute("DELETE FROM result_pairs")
            engine.executemany(
                "INSERT INTO result_pairs (pair_seq, first, second, similarity) "
                "VALUES (?, ?, ?, ?)", rows)
            engine.set_meta("result", "spec", describe_spec(result.spec))
            engine.set_meta("result", "algorithm", result.algorithm)
        return len(rows)

    def load(self, *, lazy: bool = True):
        """Rebuild the stored result as a :class:`JoinResult`.

        With ``lazy=True`` (the default) ``result.pairs`` is a
        :class:`StoredPairSequence` reading from this store's database
        file on demand; the sequence stays valid after the store is
        closed (it opens its own short-lived connections) but naturally
        requires the file to keep existing.  In-memory databases cannot
        be reopened, so they load eagerly regardless.
        """
        from repro.engine.result import JoinResult
        from repro.engine.spec import ENGINE_ALGORITHMS
        from repro.mapreduce.dfs import Dataset
        from repro.mapreduce.runner import PipelineResult

        engine = self._engine
        meta = engine.meta_section("result")
        if "spec" not in meta:
            raise StorageError(f"{engine.path!r} holds no join result")
        spec = spec_from_description(meta["spec"], engine.path)
        algorithm = stored_algorithm(meta["algorithm"])
        if algorithm not in ENGINE_ALGORITHMS:
            # 3.11.0 and earlier stored the approximate tier's results
            # (``minhash``, ``sampled``); their pairs are not the exact join.
            raise StorageError(
                f"{engine.path!r} holds a result of algorithm {algorithm!r}, "
                "which this version does not run; re-run the join with one "
                f"of {ENGINE_ALGORITHMS}")
        multisets = load_members(engine, RESULT_STORE)
        if lazy and engine.path != ":memory:":
            pairs: Sequence[SimilarPair] = StoredPairSequence(engine.path)
        else:
            pairs = [SimilarPair(decode_value(first), decode_value(second),
                                 similarity)
                     for first, second, similarity in engine.query(
                         "SELECT first, second, similarity FROM result_pairs "
                         "ORDER BY pair_seq")]
        return JoinResult(
            spec=spec, algorithm=algorithm, pairs=pairs,
            pipeline=PipelineResult(name=algorithm,
                                    output=Dataset(f"{algorithm}:pairs", ()),
                                    job_stats=[],
                                    artifacts={"storage_path": engine.path}),
            multisets=multisets)

    # -- point queries (no materialization) -----------------------------------

    def __len__(self) -> int:
        return int(self._engine.query_one(
            "SELECT COUNT(*) FROM result_pairs")[0])

    def score(self, id_a, id_b) -> float | None:
        """The stored similarity of a pair, or ``None`` if not similar.

        One indexed point lookup — the disk-backed equivalent of
        :meth:`JoinView.score <repro.streaming.view.JoinView.score>`.
        """
        first, second = canonical_pair(id_a, id_b)
        row = self._engine.query_one(
            "SELECT similarity FROM result_pairs WHERE first = ? AND second = ?",
            (encode_value(first), encode_value(second)))
        return row[0] if row is not None else None


class StoredPairSequence(Sequence):
    """A read-only pair sequence backed by a stored result's database.

    Satisfies the :class:`Sequence` protocol a
    :class:`~repro.engine.result.JoinResult` expects of ``pairs`` —
    ``len``, indexing (negative too), iteration, containment — while
    keeping the pairs on disk: ``len`` is a cached ``COUNT(*)``,
    ``__getitem__`` a point query by ``pair_seq``, and ``__iter__``
    streams rows through a connection of its own, so consuming a result
    lazily never loads the pair table.
    """

    def __init__(self, path: str) -> None:
        self._path = path
        self._count: int | None = None

    def _open(self) -> StorageEngine:
        return StorageEngine(self._path)

    def __len__(self) -> int:
        if self._count is None:
            with self._open() as engine:
                self._count = int(engine.query_one(
                    "SELECT COUNT(*) FROM result_pairs")[0])
        return self._count

    def __iter__(self) -> Iterator[SimilarPair]:
        with self._open() as engine:
            cursor = engine.execute(
                "SELECT first, second, similarity FROM result_pairs "
                "ORDER BY pair_seq")
            for first, second, similarity in cursor:
                yield SimilarPair(decode_value(first), decode_value(second),
                                  similarity)

    def __getitem__(self, position):
        if isinstance(position, slice):
            return [self[index]
                    for index in range(*position.indices(len(self)))]
        length = len(self)
        if position < 0:
            position += length
        if not 0 <= position < length:
            raise IndexError(
                f"pair index {position} out of range for {length} pairs")
        with self._open() as engine:
            row = engine.query_one(
                "SELECT first, second, similarity FROM result_pairs "
                "ORDER BY pair_seq LIMIT 1 OFFSET ?", (position,))
        first, second, similarity = row
        return SimilarPair(decode_value(first), decode_value(second),
                           similarity)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StoredPairSequence):
            other = list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"StoredPairSequence(path={self._path!r}, "
                f"pairs={len(self)})")
