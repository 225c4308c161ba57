"""The incremental partial-result index behind the serving subsystem.

:class:`SimilarityIndex` answers "what is similar to Q?" online, without
re-running a batch join.  It maintains exactly the two structures the
V-SMART-Join decomposition (paper section 3.2) shows are sufficient for any
supported Nominal Similarity Measure:

* the unilateral partials ``Uni(Mi)`` of every indexed multiset, accumulated
  per element exactly as the batch joining phase accumulates them
  (effective multiplicity → ``uni_from_multiplicity`` → ``uni_merge``);
* an element → postings inverted index mapping each alphabet element to the
  multisets containing it and their *effective* multiplicities — the online
  equivalent of the Similarity1 posting lists.

A query scans only the posting lists of its own elements, accumulating the
conjunctive partials ``Conj(Q, Mi)`` per candidate, then combines them with
the stored ``Uni`` tuples.  Two pruning levers keep tail latencies bounded:

* **stop-word pruning** (opt-in, approximate): posting lists longer than the
  configured frequency are skipped during candidate generation, mirroring
  the batch stop-word preprocessing step of section 4 — it trades recall on
  noise-dominated elements for latency, exactly as the paper describes;
* **upper-bound pruning** (always exact): candidates whose
  :meth:`~repro.similarity.base.NominalSimilarityMeasure.similarity_upper_bound`
  cannot reach the threshold are discarded the first time a posting list
  mentions them — skipping their remaining conjunctive accumulation — and
  top-k evaluation terminates early once no remaining candidate's bound can
  beat the current k-th best score (the classic threshold-algorithm stop).

Two representational optimisations keep the per-posting cost down without
changing any answer: the inverted index is keyed by *interned* dense
element ids (see :mod:`repro.core.interning`) — long string elements,
cookies in the paper's workload, hash as single machine words, and query
elements the index has never seen skip their posting lookup — and for
measures that declare a scalar conjunctive kernel
(:mod:`repro.similarity.kernels`) the per-candidate ``Conj`` accumulates as
a single float instead of a partial tuple per shared element.

The read path's rule, here and in the layers above (node, replica set,
fleet): *per request, do once what is per request; per shard, do only what
is per shard*.  Whatever depends on the query alone lives in a
:class:`PreparedQuery`, built by the outermost layer a request enters and
taken as it is by every layer below; an index, node or shard called
directly prepares for itself, so there is one path.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.core.exceptions import ServingError
from repro.core.interning import LocalInterner
from repro.core.multiset import Element, Multiset, MultisetId, content_signature
from repro.serving.api import (
    THRESHOLD_KIND,
    QueryMatch,
    QueryOptions,
    QueryRequest,
    QueryResponse,
    sort_matches,
)
from repro.similarity.base import (
    NominalSimilarityMeasure,
    Partials,
    validate_threshold,
)
from repro.similarity.kernels import scalar_conj_functions
from repro.similarity.partials import fold_uni_multiplicities
from repro.similarity.registry import get_measure

__all__ = ["PreparedQuery", "QueryMatch", "SimilarityIndex", "prepare", "sort_matches"]

#: Postings-key sentinel for query elements the interner has never seen;
#: distinct from every real key (including a literal ``None`` element).
_NEVER_INDEXED = object()


class PreparedQuery:
    """One request with what the query alone determines, derived once.

    Eager: the content ``signature`` — every cache key needs it.  Lazy and
    memoised: the scan form (:meth:`scan_form`), which a request answered
    from caches never pays for and shards 2…N take from shard 1, and the
    ``ranking_key`` of rendezvous read spreading.  Nothing held belongs to
    an index (no dense ids, write version or stop-word limit), so one is
    exact across shards, replicas, fail-over retries and interleaved writes.
    """

    __slots__ = ("query", "options", "signature", "_scan", "_ranking_key")

    def __init__(self, query: Multiset, options: QueryOptions | None = None) -> None:
        self.query = query
        self.options = options
        self.signature = content_signature(query)
        self._scan = self._ranking_key = None

    @property
    def ranking_key(self) -> list[str]:
        """The signature in canonical order (stable across processes)."""
        if self._ranking_key is None:
            self._ranking_key = sorted(map(repr, self.signature))
        return self._ranking_key

    def scan_form(self, measure: NominalSimilarityMeasure) -> tuple:
        """``(measure, Uni(Q), [(element, effective multiplicity), ...])``:
        ``Uni(Q)`` folded as :meth:`SimilarityIndex.add` folds the stored
        side, elements of no positive effective multiplicity dropped."""
        scan = self._scan
        if scan is None or scan[0] is not measure:
            effective = measure.effective_multiplicity
            scan = self._scan = (
                measure,
                fold_uni_multiplicities(measure, self.query.values()),
                [(element, weight)
                 for element, multiplicity in self.query.items()
                 if (weight := effective(multiplicity)) > 0])
        return scan


def prepare(request: "QueryRequest | PreparedQuery") -> PreparedQuery:
    """``request`` in prepared form — itself when a layer above prepared it."""
    if type(request) is PreparedQuery:
        return request
    return PreparedQuery(request.query, request.options)


class SimilarityIndex:
    """An incrementally maintained index answering similarity queries.

    Parameters
    ----------
    measure:
        Measure name or instance; must not require disjunctive partials
        (the same restriction as the batch drivers).
    stop_word_frequency:
        Optional ``q``: posting lists of more than ``q`` multisets are
        skipped at query time.  This is an *approximation* knob — with it
        unset (the default) every query is exact.
    """

    def __init__(self, measure: str | NominalSimilarityMeasure = "ruzicka",
                 stop_word_frequency: int | None = None) -> None:
        self.measure = get_measure(measure)
        self.measure.check_supported()
        if stop_word_frequency is not None and stop_word_frequency < 1:
            raise ServingError(
                f"stop_word_frequency must be >= 1 when set, got {stop_word_frequency}")
        self.stop_word_frequency = stop_word_frequency
        self._interner = LocalInterner()
        self._scalar_conj = scalar_conj_functions(self.measure)
        self._multisets: dict[MultisetId, Multiset] = {}
        self._uni: dict[MultisetId, Partials] = {}
        #: dense element id -> {multiset id -> effective multiplicity}
        self._postings: dict[int, dict[MultisetId, float]] = {}
        self._version = 0
        self._counters: dict[str, int] = {}

    def _element_key(self, element: Element) -> object:
        """The postings key of ``element``.

        Returns a sentinel no postings entry can ever equal when the
        interner has never seen the element, so callers can probe
        ``self._postings`` unconditionally — a literal ``None`` *element*
        (legal: multiset elements are any hashable) stays distinguishable
        from "provably unindexed".
        """
        key = self._interner.get(element)
        return _NEVER_INDEXED if key is None else key

    # -- container protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._multisets)

    def __contains__(self, multiset_id: object) -> bool:
        return multiset_id in self._multisets

    def ids(self) -> Iterator[MultisetId]:
        """Iterate over the indexed multiset identifiers."""
        return iter(self._multisets)

    def get(self, multiset_id: MultisetId) -> Multiset | None:
        """Return the indexed multiset with this identifier, if any."""
        return self._multisets.get(multiset_id)

    def uni(self, multiset_id: MultisetId) -> Partials:
        """Return the maintained ``Uni`` partials of an indexed multiset."""
        try:
            return self._uni[multiset_id]
        except KeyError:
            raise ServingError(
                f"multiset {multiset_id!r} is not indexed") from None

    @property
    def version(self) -> int:
        """Monotonic write version; bumped by every add/remove."""
        return self._version

    @property
    def num_postings(self) -> int:
        """Total number of (element, multiset) posting entries."""
        return sum(len(postings) for postings in self._postings.values())

    def document_frequency(self, element: Element) -> int:
        """How many indexed multisets contain ``element`` (effectively).

        This is the length of the element's posting list — the quantity a
        query over that element pays — so incremental maintenance can price
        the scan a mutation would trigger before running it.
        """
        postings = self._postings.get(self._element_key(element))
        return len(postings) if postings else 0

    def posting_list_sizes(self) -> list[int]:
        """The length of every posting list (one entry per alphabet element).

        ``sum(df * (df - 1) // 2)`` over these is the unpruned candidate-pair
        volume of a from-scratch join over the indexed state — the same
        estimate the engine planner prices, computed here from the live
        postings instead of a corpus profile.
        """
        return [len(postings) for postings in self._postings.values()]

    def counters(self) -> dict[str, int]:
        """Query-execution counters (scanned postings, pruned candidates...)."""
        return dict(self._counters)

    def _increment(self, counter: str, amount: int = 1) -> None:
        self._counters[counter] = self._counters.get(counter, 0) + amount

    # -- writes ----------------------------------------------------------------

    def add(self, multiset: Multiset, replace: bool = False) -> None:
        """Index a multiset: accumulate its ``Uni`` and extend the postings.

        Adding an identifier that is already indexed raises unless
        ``replace=True``, in which case the stored entry is swapped
        atomically (remove + add under one logical write).
        """
        if multiset.id in self._multisets:
            if not replace:
                raise ServingError(
                    f"multiset {multiset.id!r} is already indexed; "
                    "pass replace=True to overwrite")
            self.remove(multiset.id)
        measure = self.measure
        intern = self._interner.intern
        for element, multiplicity in multiset.items():
            effective = measure.effective_multiplicity(multiplicity)
            if effective <= 0:
                continue
            self._postings.setdefault(intern(element), {})[multiset.id] = effective
        self._multisets[multiset.id] = multiset
        # One scalar pass instead of a uni_from_multiplicity/uni_merge tuple
        # pair per element; identical tuples for every measure.
        self._uni[multiset.id] = fold_uni_multiplicities(
            measure, multiset.values())
        self._version += 1

    def remove(self, multiset_id: MultisetId) -> None:
        """Drop a multiset: retract its postings and forget its partials."""
        multiset = self._multisets.pop(multiset_id, None)
        if multiset is None:
            raise ServingError(f"multiset {multiset_id!r} is not indexed")
        del self._uni[multiset_id]
        for element in multiset:
            key = self._element_key(element)
            postings = self._postings.get(key)
            if postings is not None:
                postings.pop(multiset_id, None)
                if not postings:
                    del self._postings[key]
        self._version += 1

    def bulk_load(self, multisets: Iterable[Multiset],
                  replace: bool = False) -> int:
        """Add many multisets; returns how many were indexed."""
        count = 0
        for multiset in multisets:
            self.add(multiset, replace=replace)
            count += 1
        return count

    # -- persistence -----------------------------------------------------------

    def save(self, destination) -> None:
        """Persist this index into a SQLite database, exactly.

        ``destination`` is a database path or an open
        :class:`~repro.storage.StorageEngine`.  The indexed multisets, the
        maintained ``Uni`` partials, the inverted postings and the dense-id
        assignment are all stored, so :meth:`load` restores the index
        without recomputing anything and its query answers are
        bit-identical to this one's.
        """
        from repro.storage import save_index

        save_index(destination, self)

    @classmethod
    def load(cls, source) -> "SimilarityIndex":
        """Load an index stored by :meth:`save` (path or open engine)."""
        from repro.storage import load_index

        return load_index(source)

    # -- queries ---------------------------------------------------------------

    def query(self, request: "QueryRequest | PreparedQuery") -> QueryResponse:
        """Answer one unified-API query against the indexed state.

        The canonical entry point: a threshold request returns every
        indexed multiset at least ``threshold`` similar to the query, a
        top-k request the ``k`` most similar — both sorted by descending
        similarity, both exact whenever ``stop_word_frequency`` is unset.
        """
        prepared = prepare(request)
        options = prepared.options
        if options.kind == THRESHOLD_KIND:
            matches = self._threshold_matches(prepared, options.threshold)
        else:
            matches = self._topk_matches(prepared, options.k)
        return QueryResponse(tuple(matches), options)

    def _threshold_matches(self, prepared: PreparedQuery,
                           threshold: float) -> list[QueryMatch]:
        """All indexed multisets with ``sim(query, Mi) >= threshold``.

        Results are sorted by descending similarity.  With
        ``stop_word_frequency`` unset the answer is exact — identical to
        what the batch join finds for the query against the indexed state.
        Candidates whose similarity upper bound cannot reach the threshold
        are dropped the first time a posting mentions them, skipping all
        their remaining conjunctive accumulation.
        """
        limit = validate_threshold(threshold)
        measure = self.measure
        uni_q, conj_by_id = self._gather_candidates(prepared, prune_below=limit)
        matches: list[QueryMatch] = []
        for multiset_id, conj in conj_by_id.items():
            similarity = measure.combine(uni_q, self._uni[multiset_id], conj)
            if similarity >= limit:
                matches.append(QueryMatch(multiset_id, similarity))
        self._increment("serving/threshold_queries")
        return sort_matches(matches)

    def _topk_matches(self, prepared: PreparedQuery, k: int) -> list[QueryMatch]:
        """The ``k`` indexed multisets most similar to the query.

        Only multisets sharing at least one (non-pruned) element with the
        query are considered — for every supported measure, disjoint
        multisets have similarity zero.  Candidates are scored in
        descending upper-bound order so evaluation stops as soon as no
        remaining bound can beat the current k-th best score.
        """
        if k < 1:
            raise ServingError(f"top-k queries need k >= 1, got {k}")
        measure = self.measure
        uni_q, conj_by_id = self._gather_candidates(prepared)
        ranked = sorted(
            ((measure.similarity_upper_bound(uni_q, self._uni[multiset_id]),
              multiset_id) for multiset_id in conj_by_id),
            key=lambda pair: -pair[0])
        scored: list[QueryMatch] = []
        top_similarities: list[float] = []  # min-heap of the k best scores
        for bound, multiset_id in ranked:
            if len(top_similarities) >= k and bound < top_similarities[0]:
                self._increment("serving/topk_early_terminations")
                break
            similarity = measure.combine(uni_q, self._uni[multiset_id],
                                         conj_by_id[multiset_id])
            scored.append(QueryMatch(multiset_id, similarity))
            heapq.heappush(top_similarities, similarity)
            if len(top_similarities) > k:
                heapq.heappop(top_similarities)
        self._increment("serving/topk_queries")
        return sort_matches(scored)[:k]

    def neighbours(self, multiset_id: MultisetId,
                   threshold: float) -> list[QueryMatch]:
        """Threshold query for an indexed member, excluding the member itself.

        ``neighbours(Mi, t)`` over a fully loaded index enumerates exactly
        the partners the batch join pairs ``Mi`` with at threshold ``t``.
        """
        multiset = self._multisets.get(multiset_id)
        if multiset is None:
            raise ServingError(f"multiset {multiset_id!r} is not indexed")
        matches = self._threshold_matches(PreparedQuery(multiset), threshold)
        return [match for match in matches if match.multiset_id != multiset_id]

    # -- internals -------------------------------------------------------------

    def _gather_candidates(
            self, prepared: PreparedQuery,
            prune_below: float | None = None,
    ) -> tuple[Partials, dict[MultisetId, Partials]]:
        """Scan the query elements' postings, accumulating exact ``Conj``.

        Returns ``Uni(Q)`` (from the prepared scan form: nothing about the
        query is derived here, per shard) and a map from candidate
        identifier to the accumulated conjunctive partials over the shared
        elements.  With ``prune_below`` set, a candidate whose similarity
        upper bound is below it is discarded the first time it appears, and
        contributes no further accumulation work on the remaining posting
        lists — this is where upper-bound pruning actually saves scanning,
        since ``Uni(Q)`` is complete before any posting is read.
        """
        measure = self.measure
        _, uni_q, elements = prepared.scan_form(measure)
        frequency_limit = self.stop_word_frequency
        element_id = self._interner._ids.get  # one dict probe per element
        postings_of = self._postings.get
        upper_bound = measure.similarity_upper_bound
        uni_of = self._uni
        scalar = self._scalar_conj
        if scalar is not None:  # Conj accumulates as one bare float
            seed, accumulate = scalar
        else:
            seed = measure.conj_from_pair

            def accumulate(previous, effective_q, effective_m):
                return measure.conj_merge(previous,
                                          seed(effective_q, effective_m))
        conj_by_id: dict = {}
        pruned: set[MultisetId] = set()
        scanned = skipped = 0
        for element, effective_q in elements:
            postings = postings_of(element_id(element, _NEVER_INDEXED))
            if not postings:
                continue
            if frequency_limit is not None and len(postings) > frequency_limit:
                skipped += 1
                continue
            scanned += len(postings)
            for multiset_id, effective_m in postings.items():
                previous = conj_by_id.get(multiset_id)
                if previous is not None:
                    conj_by_id[multiset_id] = accumulate(previous, effective_q,
                                                         effective_m)
                elif multiset_id in pruned:
                    continue
                elif (prune_below is not None
                        and upper_bound(uni_q, uni_of[multiset_id])
                        < prune_below):
                    pruned.add(multiset_id)
                else:
                    conj_by_id[multiset_id] = seed(effective_q, effective_m)
        if scalar is not None:
            conj_by_id = {multiset_id: (total,)
                          for multiset_id, total in conj_by_id.items()}
        # A counter nothing was added to stays absent from counters().
        counters = self._counters
        for counter, amount in (("serving/postings_scanned", scanned),
                                ("serving/stop_words_skipped", skipped),
                                ("serving/candidates_pruned", len(pruned))):
            if amount:
                counters[counter] = counters.get(counter, 0) + amount
        self._increment("serving/candidates_examined",
                        len(conj_by_id) + len(pruned))
        return uni_q, conj_by_id

    def __repr__(self) -> str:
        return (f"SimilarityIndex(measure={self.measure.name!r}, "
                f"multisets={len(self._multisets)}, "
                f"postings={self.num_postings})")
