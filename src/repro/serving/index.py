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

Two representational choices keep the per-posting cost down without
changing any answer: the inverted index is keyed by the element itself, so
a query element costs one postings probe and a removed member leaves no
element behind, and the scan runs the measure's declared kernels
(:mod:`repro.similarity.kernels`) as its own arithmetic.  A scalar
conjunctive kernel accumulates ``Conj`` as a single float instead of a
partial tuple per shared element; Ruzicka's declarations (a sum of minima
bounded by ``min_over_union``) are inlined outright — the first-sight bound,
the accumulate and a threshold query's final ``combine`` — and any other
measure has its kernels called from the same loop.

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
from repro.core.knobs import OPTIONAL_INT, check
from repro.core.multiset import Multiset, MultisetId, content_signature
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
from repro.similarity.kernels import (
    BOUND_MIN_OVER_UNION,
    CONJ_SUM_MIN,
    bound_kernel_kind,
    conj_kernel_kind,
    scalar_conj_functions,
)
from repro.similarity.partials import fold_uni_multiplicities
from repro.similarity.registry import get_measure
from repro.telemetry import Metrics

__all__ = ["PreparedQuery", "QueryMatch", "SimilarityIndex", "prepare", "sort_matches"]


class PreparedQuery:
    """One request with what the query alone determines, derived once.

    Eager: the content ``signature`` — every cache key needs it.  Lazy and
    memoised: the scan form (:meth:`scan_form`), which a request answered
    from caches never pays for and shards 2…N take from shard 1.  Nothing
    held belongs to an index (no write version or stop-word limit), so one
    is exact across shards, replicas, fail-over retries and interleaved
    writes.
    """

    __slots__ = ("query", "options", "signature", "_scan")

    def __init__(self, query: Multiset, options: QueryOptions | None = None) -> None:
        self.query = query
        self.options = options
        self.signature = content_signature(query)
        self._scan = None

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
        self.stop_word_frequency = check(stop_word_frequency, OPTIONAL_INT,
                                         "stop_word_frequency", ServingError,
                                         at_least=1)
        self._scalar_conj = scalar_conj_functions(self.measure)
        # The declarations the scan inlines, resolved once: the first-sight
        # bound, the sum-of-minima accumulate and, with both, Ruzicka's
        # combine of a scalar Conj.
        self._inline_bound = (bound_kernel_kind(self.measure)
                              == BOUND_MIN_OVER_UNION)
        self._inline_sum_min = conj_kernel_kind(self.measure) == CONJ_SUM_MIN
        self._multisets: dict[MultisetId, Multiset] = {}
        self._uni: dict[MultisetId, Partials] = {}
        #: element -> {multiset id -> effective multiplicity}; only elements
        #: of indexed members are keys.
        self._postings: dict[object, dict[MultisetId, float]] = {}
        self._version = 0
        #: The map scans count into (``serving/*``): a node points it at its
        #: own, which the node's cache counts into too.
        self.metrics = Metrics()

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

    def counters(self) -> dict[str, int]:
        """Query-execution counters (scanned postings, pruned candidates...)."""
        return {name: value for name, value in self.metrics.items()
                if name.startswith("serving/")}

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
        postings = self._postings
        for element, multiplicity in multiset.items():
            effective = measure.effective_multiplicity(multiplicity)
            if effective <= 0:
                continue
            postings.setdefault(element, {})[multiset.id] = effective
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
            postings = self._postings.get(element)
            if postings is not None:
                postings.pop(multiset_id, None)
                if not postings:
                    del self._postings[element]
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
        maintained ``Uni`` partials and the inverted postings are all
        stored, so :meth:`load` restores the index
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
        uni_q, conj_by_id = self._gather_candidates(prepared, prune_below=limit)
        uni_of = self._uni
        matches: list[QueryMatch] = []
        if self._inline_bound and self._inline_sum_min:
            # Ruzicka's combine, in its own operation order, on the scalar.
            a = uni_q[0]
            for multiset_id, total in conj_by_id.items():
                union = a + uni_of[multiset_id][0] - total
                similarity = 0.0 if union <= 0 else total / union
                if similarity >= limit:
                    matches.append(QueryMatch(multiset_id, similarity))
        else:
            combine = self.measure.combine
            wrap = self._scalar_conj is not None  # a bare float is (total,)
            for multiset_id, conj in conj_by_id.items():
                similarity = combine(uni_q, uni_of[multiset_id],
                                     (conj,) if wrap else conj)
                if similarity >= limit:
                    matches.append(QueryMatch(multiset_id, similarity))
        self.metrics["serving/threshold_queries"] += 1
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
        wrap = self._scalar_conj is not None  # a bare float is (total,)
        uni_q, conj_by_id = self._gather_candidates(prepared)
        ranked = sorted(
            ((measure.similarity_upper_bound(uni_q, self._uni[multiset_id]),
              multiset_id) for multiset_id in conj_by_id),
            key=lambda pair: -pair[0])
        scored: list[QueryMatch] = []
        top_similarities: list[float] = []  # min-heap of the k best scores
        for bound, multiset_id in ranked:
            if len(top_similarities) >= k and bound < top_similarities[0]:
                self.metrics["serving/topk_early_terminations"] += 1
                break
            conj = conj_by_id[multiset_id]
            similarity = measure.combine(uni_q, self._uni[multiset_id],
                                         (conj,) if wrap else conj)
            scored.append(QueryMatch(multiset_id, similarity))
            heapq.heappush(top_similarities, similarity)
            if len(top_similarities) > k:
                heapq.heappop(top_similarities)
        self.metrics["serving/topk_queries"] += 1
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
        threshold = QueryOptions.for_threshold(threshold).threshold
        matches = self._threshold_matches(PreparedQuery(multiset), threshold)
        return [match for match in matches if match.multiset_id != multiset_id]

    # -- internals -------------------------------------------------------------

    def _gather_candidates(
            self, prepared: PreparedQuery,
            prune_below: float | None = None,
    ) -> tuple[Partials, dict[MultisetId, object]]:
        """Scan the query elements' postings, accumulating exact ``Conj``.

        Returns ``Uni(Q)`` (from the prepared scan form: nothing about the
        query is derived here, per shard) and a map from candidate
        identifier to the ``Conj`` accumulated over the shared elements —
        a bare float for a measure with a scalar conjunctive kernel, the
        partial tuple otherwise.  With ``prune_below`` set, a candidate
        whose similarity upper bound is below it is discarded the first
        time it appears, and contributes no further accumulation work on
        the remaining posting lists — this is where upper-bound pruning
        actually saves scanning, since ``Uni(Q)`` is complete before any
        posting is read.

        The one scan, for threshold and top-k alike.  Its innermost loop
        runs once per posting: a declared ``min_over_union`` bound and
        sum-of-minima accumulate are inlined there, in the order the
        measure's own methods compute them; any other kernel is called.
        """
        measure = self.measure
        _, uni_q, elements = prepared.scan_form(measure)
        frequency_limit = self.stop_word_frequency
        postings_of = self._postings.get
        uni_of = self._uni
        inline_bound = self._inline_bound
        sum_min = self._inline_sum_min
        a = uni_q[0] if inline_bound else None  # the inlined bound's operand
        upper_bound = measure.similarity_upper_bound
        scalar = self._scalar_conj
        if scalar is not None:  # Conj accumulates as one bare float
            seed, accumulate = scalar
        else:
            seed = measure.conj_from_pair

            def accumulate(previous, effective_q, effective_m):
                return measure.conj_merge(previous,
                                          seed(effective_q, effective_m))
        conj_by_id: dict = {}
        conj_of = conj_by_id.get
        pruned: set[MultisetId] = set()
        scanned = skipped = 0
        for element, effective_q in elements:
            postings = postings_of(element)
            if not postings:
                continue
            if frequency_limit is not None and len(postings) > frequency_limit:
                skipped += 1
                continue
            scanned += len(postings)
            for multiset_id, effective_m in postings.items():
                previous = conj_of(multiset_id)
                if previous is not None:
                    if sum_min:
                        conj_by_id[multiset_id] = previous + (
                            effective_q if effective_q <= effective_m
                            else effective_m)
                    else:
                        conj_by_id[multiset_id] = accumulate(
                            previous, effective_q, effective_m)
                    continue
                if multiset_id in pruned:
                    continue
                if prune_below is not None:
                    if inline_bound:
                        # min_over_union, in Ruzicka's combine order.
                        b = uni_of[multiset_id][0]
                        m = b if b < a else a
                        union = a + b - m
                        if union <= 0 or m / union < prune_below:
                            pruned.add(multiset_id)
                            continue
                    elif upper_bound(uni_q, uni_of[multiset_id]) < prune_below:
                        pruned.add(multiset_id)
                        continue
                if sum_min:
                    conj_by_id[multiset_id] = (effective_q
                                               if effective_q <= effective_m
                                               else effective_m)
                else:
                    conj_by_id[multiset_id] = seed(effective_q, effective_m)
        # A counter nothing was added to stays absent from counters().
        metrics = self.metrics
        for counter, amount in (("serving/postings_scanned", scanned),
                                ("serving/stop_words_skipped", skipped),
                                ("serving/candidates_pruned", len(pruned))):
            if amount:
                metrics[counter] += amount
        metrics["serving/candidates_examined"] += len(conj_by_id) + len(pruned)
        return uni_q, conj_by_id

    def __repr__(self) -> str:
        return (f"SimilarityIndex(measure={self.measure.name!r}, "
                f"multisets={len(self._multisets)}, "
                f"postings={self.num_postings})")
