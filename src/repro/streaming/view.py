"""Exact incremental maintenance of a materialized similarity join.

:class:`JoinView` holds the full similar-pair set of a
:class:`~repro.engine.spec.JoinSpec` over a corpus and keeps it correct as
the corpus churns, without re-running the batch join per update.  The
incremental path reuses the same two structures the serving index maintains
(inverted postings over effective multiplicities, ``Uni`` partials per
multiset) plus upper-bound candidate pruning, so applying a
:class:`~repro.streaming.changes.ChangeBatch` touches only the pairs that
involve a written identifier:

1. snapshot the current scores of every pair involving a written id;
2. apply the writes to the underlying index (postings + ``Uni`` retract /
   extend, exactly as the serving layer does);
3. re-derive the neighbours of every written id that survived the batch by
   scanning only its own elements' posting lists;
4. diff the two snapshots and emit :class:`~repro.streaming.changes.PairDelta`
   events — pairs between two *unwritten* ids cannot move, so the diff is
   exact.

The result is *exact*, not approximate: every partial result is a sum of
integer-valued effective multiplicities (exact in floating point), so the
incrementally maintained scores are bit-identical to what a from-scratch
engine re-join computes on the mutated corpus — the property the stateful
Hypothesis suite in ``tests/test_streaming.py`` asserts.

Every batch takes this one path.  It is also what a stored view's log
replays through, so a recovered view is the view that was lost.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.core.exceptions import StreamingError
from repro.core.multiset import Multiset, MultisetId
from repro.core.records import SimilarPair, canonical_pair
from repro.engine.spec import JoinSpec
from repro.serving.bootstrap import multisets_from_input
from repro.serving.index import QueryMatch, SimilarityIndex, sort_matches
from repro.streaming.changes import (
    DELETE,
    UPSERT,
    Change,
    ChangeBatch,
    PairDelta,
    sort_deltas,
)
from repro.telemetry import Metrics

#: Subscriber callback signature: ``callback(view, batch, deltas)``.
Subscriber = Callable[["JoinView", ChangeBatch, Sequence[PairDelta]], None]


class JoinView:
    """The materialized pair set of a join spec, maintained under mutation.

    Parameters
    ----------
    spec:
        The join the view materializes.  A spec with
        ``stop_word_frequency`` is rejected: pairs computed on filtered
        data would not match incremental rescans.
    data:
        The corpus, in any shape :func:`repro.serving.multisets_from_input`
        accepts.
    pairs:
        The spec's similar pairs over ``data``, when already computed (the
        :meth:`~repro.engine.result.JoinResult.to_view` handoff).  ``None``
        derives the initial pair set from the view's own index — identical,
        by the exactness argument above, just not free.
    """

    def __init__(self, spec: JoinSpec, data, *,
                 pairs: Sequence[SimilarPair] | None = None) -> None:
        if spec.stop_word_frequency is not None:
            raise StreamingError(
                "cannot maintain a view of a stop-word-filtered join: its "
                "pairs are computed on filtered data and would not match "
                "incremental rescans of the live postings")
        self.spec = spec
        self.threshold = float(spec.threshold)
        self._index = SimilarityIndex(spec.measure)
        self.measure = self._index.measure
        multisets = multisets_from_input(data)
        self._index.bulk_load(multisets)
        self._pairs: dict[tuple, float] = {}
        self._partners: dict[MultisetId, set[MultisetId]] = {}
        if pairs is None:
            self._ingest_pairs(self._derive_pairs())
        else:
            self._ingest_pairs(
                (pair.first, pair.second, pair.similarity) for pair in pairs)
        self._subscribers: list[Subscriber] = []
        self._version = 0
        self.metrics = Metrics()

    # -- durability ------------------------------------------------------------

    def persist(self, destination, snapshot_every: int | None = None):
        """Make this view durable: snapshot now, log every batch after.

        Opens (or borrows) a :class:`~repro.storage.ViewStore` on
        ``destination`` and attaches it, so each subsequent
        :meth:`apply` commits its batch to the store's mutation log
        before returning.  Returns the
        :class:`~repro.storage.ViewSubscription`; call its ``detach()``
        to stop logging.  After a crash, :meth:`recover` rebuilds the
        exact pre-crash view from the file.
        """
        from repro.storage import ViewStore

        return ViewStore(destination).attach(view=self,
                                             snapshot_every=snapshot_every)

    @classmethod
    def recover(cls, source) -> "JoinView":
        """Rebuild a persisted view: load its snapshot, replay its log.

        The recovered pair map is *bit-identical* to what the lost
        process held after its last durably applied batch — replay runs
        :meth:`apply`, whose scores match a from-scratch re-join exactly
        (the property the streaming test suite asserts).
        """
        from repro.storage import ViewStore

        with ViewStore(source) as store:
            return store.load()

    # -- construction internals ----------------------------------------------

    def _derive_pairs(self) -> Iterator[tuple]:
        for multiset_id in list(self._index.ids()):
            for match in self._index.neighbours(multiset_id, self.threshold):
                yield multiset_id, match.multiset_id, match.similarity

    def _ingest_pairs(self, triples) -> None:
        for id_a, id_b, similarity in triples:
            for multiset_id in (id_a, id_b):
                if multiset_id not in self._index:
                    raise StreamingError(
                        f"pair references multiset {multiset_id!r} which is "
                        "not in the view's corpus; the join result and the "
                        "data must describe the same collection")
            self._set_pair(canonical_pair(id_a, id_b), similarity)

    # -- pair-map bookkeeping -------------------------------------------------

    def _set_pair(self, pair: tuple, similarity: float) -> None:
        self._pairs[pair] = similarity
        self._partners.setdefault(pair[0], set()).add(pair[1])
        self._partners.setdefault(pair[1], set()).add(pair[0])

    def _drop_pair(self, pair: tuple) -> None:
        del self._pairs[pair]
        for own, other in (pair, pair[::-1]):
            partners = self._partners.get(own)
            if partners is not None:
                partners.discard(other)
                if not partners:
                    del self._partners[own]

    # -- read surface ---------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic batch version; bumped once per applied batch."""
        return self._version

    @property
    def num_members(self) -> int:
        """How many multisets the view currently holds."""
        return len(self._index)

    @property
    def num_pairs(self) -> int:
        """How many similar pairs the view currently materializes."""
        return len(self._pairs)

    def __contains__(self, multiset_id: object) -> bool:
        return multiset_id in self._index

    def get(self, multiset_id: MultisetId) -> Multiset | None:
        """The current multiset under this identifier, if held."""
        return self._index.get(multiset_id)

    def members(self) -> list[Multiset]:
        """The current corpus, in index order."""
        return [self._index.get(multiset_id)
                for multiset_id in self._index.ids()]

    def pairs(self) -> dict[tuple, float]:
        """A copy of the ``{(first, second): similarity}`` pair map."""
        return dict(self._pairs)

    def score(self, id_a: MultisetId, id_b: MultisetId) -> float | None:
        """The maintained similarity of a pair, or ``None`` if below ``t``."""
        return self._pairs.get(canonical_pair(id_a, id_b))

    def similar_pairs(self) -> list[SimilarPair]:
        """The materialized pairs as sorted :class:`SimilarPair` records."""
        return sorted(SimilarPair(first, second, similarity)
                      for (first, second), similarity in self._pairs.items())

    def __iter__(self) -> Iterator[SimilarPair]:
        return iter(self.similar_pairs())

    def matches_for(self, member_id: MultisetId) -> list[QueryMatch]:
        """The maintained partners of one member, best first.

        This is the view-side equivalent of
        :meth:`~repro.serving.index.SimilarityIndex.neighbours` at the
        view's threshold, answered from the pair map without any posting
        scan — the serving subscriber warms caches from it.
        """
        if member_id not in self._index:
            raise StreamingError(f"multiset {member_id!r} is not in the view")
        return sort_matches(
            QueryMatch(partner,
                       self._pairs[canonical_pair(member_id, partner)])
            for partner in self._partners.get(member_id, ()))

    def counters(self) -> dict[str, int]:
        """Maintenance counters (changes applied, deltas per kind)."""
        return dict(self.metrics)

    # -- subscriptions ---------------------------------------------------------

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Register a ``callback(view, batch, deltas)``; returns it."""
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove a previously registered subscriber."""
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            raise StreamingError(
                "subscriber is not registered on this view") from None

    # -- mutation --------------------------------------------------------------

    def upsert(self, multiset: Multiset) -> list[PairDelta]:
        """Apply a single-upsert batch."""
        return self.apply(ChangeBatch.of(Change.upsert(multiset)))

    def delete(self, multiset_id: MultisetId) -> list[PairDelta]:
        """Apply a single-delete batch."""
        return self.apply(ChangeBatch.of(Change.delete(multiset_id)))

    def apply(self, changes) -> list[PairDelta]:
        """Apply a change batch; returns the sorted pair deltas it caused.

        Validation runs before any write, so a bad batch (a delete naming
        an unknown identifier) leaves the view untouched.
        """
        batch = ChangeBatch.coerce(changes)
        self._validate(batch)
        if not batch:
            return []
        deltas = self._apply_incremental(batch)
        self._version += 1
        metrics = self.metrics
        metrics["streaming/changes_applied"] += len(batch)
        for delta in deltas:
            metrics[f"streaming/{delta.kind}"] += 1
        for subscriber in list(self._subscribers):
            subscriber(self, batch, deltas)
        return deltas

    def _validate(self, batch: ChangeBatch) -> None:
        """Check every change against the evolving membership, write-free.

        O(batch): the evolving live set is tracked as a batch-local overlay
        over the index instead of a full membership copy, so single-change
        batches on a large corpus stay cheap.
        """
        added: set = set()
        deleted: set = set()
        for change in batch:
            target = change.target
            if change.kind == UPSERT:
                added.add(target)
                deleted.discard(target)
            else:
                live = (target in added
                        or (target not in deleted and target in self._index))
                if not live:
                    raise StreamingError(
                        f"change batch deletes multiset {target!r} "
                        "which the view does not hold at that point")
                deleted.add(target)
                added.discard(target)

    def _write(self, batch: ChangeBatch) -> None:
        """Apply the batch's writes to the index, in order."""
        for change in batch:
            if change.kind == DELETE:
                self._index.remove(change.target)
            else:
                self._index.add(change.multiset,
                                replace=change.target in self._index)

    # -- the incremental apply -------------------------------------------------

    def _apply_incremental(self, batch: ChangeBatch) -> list[PairDelta]:
        touched = batch.targets()
        old_affected = {
            canonical_pair(target, partner): None
            for target in touched
            for partner in self._partners.get(target, ())}
        for pair in old_affected:
            old_affected[pair] = self._pairs[pair]
        self._write(batch)
        new_affected: dict[tuple, float] = {}
        for target in touched:
            if target not in self._index:
                continue
            for match in self._index.neighbours(target, self.threshold):
                new_affected[canonical_pair(target, match.multiset_id)] = \
                    match.similarity
        return self._commit_diff(old_affected, new_affected)

    def _commit_diff(self, old: dict[tuple, float],
                     new: dict[tuple, float]) -> list[PairDelta]:
        """Diff two pair maps, update the view's state, emit sorted deltas."""
        deltas: list[PairDelta] = []
        for pair, previous in old.items():
            if pair not in new:
                deltas.append(PairDelta.removed(*pair, previous=previous))
                self._drop_pair(pair)
        for pair, similarity in new.items():
            previous = old.get(pair)
            if pair not in old:
                deltas.append(PairDelta.added(*pair, similarity=similarity))
                self._set_pair(pair, similarity)
            elif previous != similarity:
                deltas.append(PairDelta.changed(*pair, similarity=similarity,
                                                previous=previous))
                self._set_pair(pair, similarity)
        return sort_deltas(deltas)

    def __repr__(self) -> str:
        return (f"JoinView(measure={self.measure.name!r}, "
                f"threshold={self.threshold}, members={self.num_members}, "
                f"pairs={self.num_pairs}, version={self._version})")
