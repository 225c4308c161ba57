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

For large batches the incremental path stops paying: when most of the
corpus is rewritten, one batch re-join is cheaper than thousands of posting
rescans.  :meth:`JoinView.decide` prices both strategies with the same
:class:`~repro.mapreduce.costmodel.CostParameters` discipline the engine
planner uses — estimate the work, convert through the calibrated rates,
pick the cheapest — and ``apply(..., strategy="auto")`` acts on the
decision.  The re-join path executes the view's own spec through a
:class:`~repro.engine.engine.SimilarityEngine` and diffs the complete pair
maps, so both strategies emit identical deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.core.exceptions import StreamingError
from repro.core.multiset import Multiset, MultisetId
from repro.core.records import SimilarPair, canonical_pair
from repro.engine.spec import APPROXIMATE_ALGORITHMS, JoinSpec
from repro.mapreduce.costmodel import DEFAULT_COST_PARAMETERS, CostParameters
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

#: Apply strategies.
INCREMENTAL = "incremental"
REJOIN = "rejoin"
AUTO_STRATEGY = "auto"

APPLY_STRATEGIES = (AUTO_STRATEGY, INCREMENTAL, REJOIN)

#: MapReduce steps a distributed re-join pays start/stop overhead for (the
#: joining phase plus the two similarity steps, as in the paper's pipelines).
_REJOIN_PIPELINE_JOBS = 4
#: Estimated bytes of one posting visit / one written record, matching the
#: planner's container-plus-words accounting.
_POSTING_BYTES = 32.0

#: Subscriber callback signature: ``callback(view, batch, deltas)``.
Subscriber = Callable[["JoinView", ChangeBatch, Sequence[PairDelta]], None]


@dataclass(frozen=True)
class ApplyPlan:
    """The priced decision for one batch: incremental apply vs full re-join.

    Mirrors the engine planner's "price the candidates, pick the cheapest
    feasible" discipline at mutation granularity: both strategies are
    converted to predicted seconds through the same calibrated cost rates,
    and ``strategy`` names the cheaper one.
    """

    strategy: str
    #: Predicted cost of scanning only the affected posting lists.
    incremental_seconds: float
    #: Predicted cost of re-running the batch join on the mutated corpus.
    rejoin_seconds: float
    #: Distinct identifiers the batch writes.
    touched: int
    #: Posting entries the incremental neighbour rescans would visit.
    postings_to_scan: int
    #: Unpruned candidate-pair volume of a from-scratch re-join.
    candidate_records: int
    reason: str

    def explain(self) -> str:
        """One-line EXPLAIN-style rendering of the decision."""
        return (f"ApplyPlan: strategy={self.strategy!r} "
                f"(incremental {self.incremental_seconds:.3f} s vs "
                f"re-join {self.rejoin_seconds:.3f} s; {self.reason})")


class JoinView:
    """The materialized pair set of a join spec, maintained under mutation.

    Parameters
    ----------
    spec:
        The join the view materializes.  Specs a view cannot maintain
        *exactly* are rejected: ``algorithm="minhash"`` (approximate
        banding) and ``stop_word_frequency`` (pairs computed on filtered
        data would not match incremental rescans).
    data:
        The corpus, in any shape :func:`repro.serving.multisets_from_input`
        accepts.
    pairs:
        The spec's similar pairs over ``data``, when already computed (the
        :meth:`~repro.engine.result.JoinResult.to_view` handoff).  ``None``
        derives the initial pair set from the view's own index — identical,
        by the exactness argument above, just not free.
    engine:
        Optional :class:`~repro.engine.engine.SimilarityEngine` the re-join
        strategy executes on (borrowed, never closed).  Without one, a
        throwaway serial-backend engine is created per re-join.
    """

    def __init__(self, spec: JoinSpec, data, *,
                 pairs: Sequence[SimilarPair] | None = None,
                 engine=None) -> None:
        if spec.algorithm in APPROXIMATE_ALGORITHMS or spec.allows_inexact:
            raise StreamingError(
                "cannot maintain an exact view of an approximate join "
                f"(algorithm={spec.algorithm!r}, recall={spec.recall!r}): "
                "banding or sampling can miss true pairs; pick an exact "
                "algorithm and drop the recall target")
        if spec.stop_word_frequency is not None:
            raise StreamingError(
                "cannot maintain a view of a stop-word-filtered join: its "
                "pairs are computed on filtered data and would not match "
                "incremental rescans of the live postings")
        self.spec = spec
        self.threshold = float(spec.threshold)
        self._engine = engine
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
        self._counters: dict[str, int] = {}

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
    def recover(cls, source, *, engine=None) -> "JoinView":
        """Rebuild a persisted view: load its snapshot, replay its log.

        The recovered pair map is *bit-identical* to what the lost
        process held after its last durably applied batch — replay runs
        the incremental strategy, whose scores match a from-scratch
        re-join exactly (the property the streaming test suite asserts).
        ``engine`` is an optional
        :class:`~repro.engine.engine.SimilarityEngine` for the rebuilt
        view's future re-joins.
        """
        from repro.storage import ViewStore

        with ViewStore(source) as store:
            return store.load(engine=engine)

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
        """Maintenance counters (batches per strategy, deltas per kind...)."""
        return dict(self._counters)

    def _increment(self, counter: str, amount: int = 1) -> None:
        self._counters[counter] = self._counters.get(counter, 0) + amount

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

    def upsert(self, multiset: Multiset,
               strategy: str = AUTO_STRATEGY) -> list[PairDelta]:
        """Apply a single-upsert batch."""
        return self.apply(ChangeBatch.of(Change.upsert(multiset)),
                          strategy=strategy)

    def delete(self, multiset_id: MultisetId,
               strategy: str = AUTO_STRATEGY) -> list[PairDelta]:
        """Apply a single-delete batch."""
        return self.apply(ChangeBatch.of(Change.delete(multiset_id)),
                          strategy=strategy)

    def apply(self, changes, strategy: str = AUTO_STRATEGY) -> list[PairDelta]:
        """Apply a change batch; returns the sorted pair deltas it caused.

        ``strategy`` forces the maintenance path (``"incremental"`` or
        ``"rejoin"``); the default ``"auto"`` consults :meth:`decide`.
        Validation runs before any write, so a bad batch (a delete naming
        an unknown identifier) leaves the view untouched.
        """
        if strategy not in APPLY_STRATEGIES:
            raise StreamingError(
                f"unknown apply strategy {strategy!r}; "
                f"expected one of {APPLY_STRATEGIES}")
        batch = ChangeBatch.coerce(changes)
        self._validate(batch)
        if not batch:
            return []
        if strategy == AUTO_STRATEGY:
            strategy = self._price(batch).strategy
        if strategy == INCREMENTAL:
            deltas = self._apply_incremental(batch)
        else:
            deltas = self._apply_rejoin(batch)
        self._version += 1
        self._increment(f"streaming/batches_{strategy}")
        self._increment("streaming/changes_applied", len(batch))
        for delta in deltas:
            self._increment(f"streaming/{delta.kind}")
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

    # -- the two strategies ----------------------------------------------------

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

    def _apply_rejoin(self, batch: ChangeBatch) -> list[PairDelta]:
        self._write(batch)
        corpus = self.members()
        if self._engine is not None:
            result = self._engine.run(self.spec, corpus)
        else:
            from repro.engine.engine import SimilarityEngine

            with SimilarityEngine() as engine:
                result = engine.run(self.spec, corpus)
        new_pairs = {pair.pair: pair.similarity for pair in result}
        return self._commit_diff(dict(self._pairs), new_pairs)

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

    # -- strategy pricing ------------------------------------------------------

    def decide(self, changes) -> ApplyPlan:
        """Price incremental apply vs full re-join for a batch.

        Both estimates go through the engine's calibrated
        :class:`CostParameters` — the incremental side charges every posting
        entry the neighbour rescans would visit, the re-join side charges
        the full input scan plus the unpruned candidate volume (the same
        ``sum_e C(df_e, 2)`` the planner prices) plus the pipeline's
        start/stop overhead when the spec names a distributed algorithm.
        """
        batch = ChangeBatch.coerce(changes)
        self._validate(batch)
        return self._price(batch)

    def _price(self, batch: ChangeBatch) -> ApplyPlan:
        """The pricing behind :meth:`decide`, for an already-valid batch."""
        params = self._cost_parameters()
        unit = params.record_overhead_bytes + _POSTING_BYTES
        postings_to_scan = 0
        touched_records = 0
        for change in batch:
            # Charge the rescan of the incoming contents and the retraction
            # of whatever is currently stored under the same identifier.
            sources = [change.multiset] if change.kind == UPSERT else []
            stored = self._index.get(change.target)
            if stored is not None:
                sources.append(stored)
            for source in sources:
                touched_records += len(source)
                for element in source:
                    postings_to_scan += self._index.document_frequency(element)
        incremental_seconds = ((postings_to_scan + touched_records) * unit
                               / params.machine_throughput)
        sizes = self._index.posting_list_sizes()
        candidate_records = sum(df * (df - 1) // 2 for df in sizes)
        rejoin_work = (self._index.num_postings + candidate_records) * unit
        rejoin_overhead = (0.0 if self.spec.algorithm in
                           ("exact", "inverted_index", "ppjoin")
                           else _REJOIN_PIPELINE_JOBS
                           * params.job_overhead_seconds)
        rejoin_seconds = (rejoin_overhead
                          + rejoin_work / params.machine_throughput)
        if incremental_seconds <= rejoin_seconds:
            strategy = INCREMENTAL
            reason = (f"rescanning {postings_to_scan} postings for "
                      f"{len(batch.targets())} written ids beats re-joining "
                      f"{candidate_records} candidate pairs")
        else:
            strategy = REJOIN
            reason = (f"batch rewrites enough of the corpus that one "
                      f"re-join over {candidate_records} candidate pairs "
                      f"beats {postings_to_scan} posting rescans")
        return ApplyPlan(strategy=strategy,
                         incremental_seconds=incremental_seconds,
                         rejoin_seconds=rejoin_seconds,
                         touched=len(batch.targets()),
                         postings_to_scan=postings_to_scan,
                         candidate_records=candidate_records,
                         reason=reason)

    def _cost_parameters(self) -> CostParameters:
        if self.spec.cost_parameters is not None:
            return self.spec.cost_parameters
        if self._engine is not None:
            return self._engine.runner.cost_parameters
        return DEFAULT_COST_PARAMETERS

    def __repr__(self) -> str:
        return (f"JoinView(measure={self.measure.name!r}, "
                f"threshold={self.threshold}, members={self.num_members}, "
                f"pairs={self.num_pairs}, version={self._version})")
