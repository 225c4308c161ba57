"""The shared V-SMART-Join similarity phase (paper section 4).

The similarity phase is common to all three joining algorithms and consists
of two MapReduce steps:

* **Similarity1** builds an inverted index on the alphabet elements, where
  each posting carries the multiset identifier, its unilateral partial
  results ``Uni(Mi)`` and the element multiplicity; the reducer scans each
  element's posting list and emits every candidate pair sharing that
  element, together with both ``Uni`` tuples and both multiplicities.
* **Similarity2** groups those records by pair, aggregates the conjunctive
  partial results ``Conj(Mi, Mj)`` (pre-aggregated by a dedicated combiner),
  applies the measure's ``F()`` function and keeps the pairs whose
  similarity reaches the threshold.

Two load-balancing refinements from the paper are implemented:

* an optional *chunked* Similarity1 reducer: an element whose posting list
  exceeds a chunk size is dissected into ``T`` chunks and all unordered
  chunk pairs are emitted; the Similarity2 mappers then expand each chunk
  pair into candidate pairs, moving the quadratic work off the single
  overloaded reducer (section 4, last paragraphs);
* an optional stop-word limit: elements whose posting list exceeds ``q``
  are dropped entirely (the dedicated preprocessing job in
  :mod:`repro.vsmart.preprocessing` is the paper's preferred way to do this,
  but the in-reducer guard is kept for ablations).

Two hot-path refinements go beyond the paper:

* **upper-bound candidate pruning** (exact, unlike stop words): when the
  phase is built with the measure and threshold, a candidate pair whose
  :meth:`~repro.similarity.base.NominalSimilarityMeasure.similarity_upper_bound`
  — computable from the two ``Uni`` tuples already sitting in the postings —
  cannot reach the threshold is never emitted.  The bound is a guarantee,
  so the join output is unchanged while the quadratic posting-list
  expansion shrinks *before* it hits the shuffle;
* **packed pair keys**: the driver interns multiset identifiers to dense
  integers (see :mod:`repro.core.interning`), and the
  :class:`~repro.core.interning.PairCodec` of that interning pass packs each
  candidate's ``(id_i, id_j)`` into a single int, so the Similarity2 shuffle
  hashes and compares one machine word instead of two identifiers.  This is
  the only key form: every candidate-emitting stage is built with the codec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.exceptions import JobConfigurationError
from repro.core.interning import PairCodec
from repro.core.records import JoinedTuple, PairContribution, PostingEntry, SimilarPair
from repro.mapreduce.job import Combiner, JobSpec, Mapper, Reducer, TaskContext
from repro.mapreduce.types import KeyValue, sized_key_value, walk_record_bytes
from repro.similarity.base import NominalSimilarityMeasure, validate_threshold
from repro.vsmart.shapes import InternedInputMapper, RecordShapes


@dataclass(frozen=True)
class ChunkPairRecord:
    """A pair of posting-list chunks emitted by an overloaded Similarity1 reducer.

    ``first_chunk`` and ``second_chunk`` are tuples of
    :class:`~repro.core.records.PostingEntry`; ``same_chunk`` marks the
    diagonal case where both sides are the same chunk (so the expansion must
    only produce ordered pairs within it).
    """

    element: object
    first_chunk: tuple
    second_chunk: tuple
    same_chunk: bool


@dataclass(frozen=True)
class SimilarityPhaseConfig:
    """Tunables of the similarity phase.

    ``chunk_size`` enables the chunked reducer for posting lists longer than
    the given number of entries; ``stop_word_frequency`` drops elements whose
    posting list exceeds the given length (``None`` disables either feature).
    """

    chunk_size: int | None = None
    stop_word_frequency: int | None = None
    use_combiners: bool = True

    def __post_init__(self) -> None:
        if self.chunk_size is not None and self.chunk_size < 2:
            raise JobConfigurationError(
                "chunk_size must be at least 2 posting entries")
        if self.stop_word_frequency is not None and self.stop_word_frequency < 1:
            raise JobConfigurationError(
                "stop_word_frequency must be at least 1")


class _CandidateFilter:
    """Shared pruning/packing state of the candidate-emitting stages.

    Pruning activates only when both a measure and a threshold are supplied
    *and* the measure actually admits a ``Uni``-only bound (measures whose
    :meth:`~repro.similarity.base.NominalSimilarityMeasure.conj_upper_bound`
    returns ``None`` would bound every pair by 1.0, so checking them would
    be pure overhead).
    """

    __slots__ = ("measure", "threshold", "pair_codec", "prunes")

    def __init__(self, measure: NominalSimilarityMeasure | None,
                 threshold: float | None, pair_codec: PairCodec) -> None:
        self.measure = measure
        self.threshold = (None if threshold is None
                          else validate_threshold(threshold))
        self.pair_codec = pair_codec
        self.prunes = (measure is not None and self.threshold is not None
                       and measure.conj_upper_bound(
                           measure.uni_zero(), measure.uni_zero()) is not None)

    def pair_records(self, first: Sequence[PostingEntry],
                     second: Sequence[PostingEntry], same: bool,
                     context: TaskContext, emitted_counter: str) -> Iterator[tuple]:
        """Every surviving candidate of ``first`` x ``second``, keyed.

        With ``same`` the two are one posting list (or chunk) and only its
        unordered pairs are produced.  A multiset is not paired with itself,
        a pair that provably cannot reach the threshold is pruned, and each
        other one becomes ``((packed_ids, Uni(Mi), Uni(Mj)), <f_ik, f_jk>)``:
        identifiers are dense interned ints, so numeric id order *is*
        canonical order and the key holds one int for both.  The join's
        innermost loop: what does not depend on the pair is read before it,
        the counters are updated after it (an update costs a call).
        """
        prunes = self.prunes
        upper_bound = self.measure.similarity_upper_bound if prunes else None
        threshold = self.threshold
        pack = self.pair_codec.pack
        emitted = 0
        pruned = 0
        for index_i, posting_i in enumerate(first):
            id_i = posting_i.multiset_id
            uni_i = posting_i.uni
            for posting_j in (second[index_i + 1:] if same else second):
                id_j = posting_j.multiset_id
                if id_i == id_j:
                    continue
                uni_j = posting_j.uni
                if prunes and upper_bound(uni_i, uni_j) < threshold:
                    pruned += 1
                    continue
                emitted += 1
                if id_i <= id_j:
                    yield ((pack(id_i, id_j), uni_i, uni_j),
                           PairContribution(posting_i.multiplicity,
                                            posting_j.multiplicity))
                else:
                    yield ((pack(id_j, id_i), uni_j, uni_i),
                           PairContribution(posting_j.multiplicity,
                                            posting_i.multiplicity))
        if emitted:
            context.increment(emitted_counter, emitted)
        if pruned:
            context.increment("similarity1/candidates_pruned", pruned)


# ---------------------------------------------------------------------------
# Similarity1
# ---------------------------------------------------------------------------


class Similarity1Mapper(InternedInputMapper):
    """``mapSimilarity1``: re-key joined tuples by their alphabet element.

    ``<Mi, Uni(Mi), m_ik>  ->  <a_k, <Mi, Uni(Mi), f_ik>>``

    Built with the ``measure`` whose ``Uni`` the joined tuples carry, the
    mapper knows what a posting weighs; without one each emission is sized
    as it is emitted.
    """

    def __init__(self, measure: NominalSimilarityMeasure | None = None) -> None:
        self._kv_bytes = (None if measure is None
                          else RecordShapes(measure).posting_kv)

    def check_input(self, record: JoinedTuple, context: TaskContext) -> None:
        if self._kv_bytes is not None:
            super().check_input(record, context)

    def map(self, record: JoinedTuple, context: TaskContext) -> Iterator[KeyValue]:
        yield sized_key_value(
            record.element,
            PostingEntry(record.multiset_id, record.uni, record.multiplicity),
            None, self._kv_bytes)


class Similarity1Reducer(Reducer):
    """``reduceSimilarity1``: emit candidate pairs for each element.

    For every unordered pair of postings in the element's reduce value list
    the reducer outputs ``<<Mi, Mj, Uni(Mi), Uni(Mj)>, <f_ik, f_jk>>``, with
    ``Mi, Mj`` packed into one int by ``pair_codec``.
    Without chunking the posting list must be materialised, so the runner's
    memory budget applies (exactly the thrashing risk the paper describes);
    with chunking the list is dissected and only chunk pairs are emitted.

    With ``measure`` and ``threshold`` supplied, pairs whose similarity
    upper bound cannot reach the threshold are pruned here — before they
    ever enter the shuffle.  With ``measure`` supplied the reducer also
    knows what its output weighs: one size for every candidate record, and
    ``base + n x posting`` for a chunk pair holding ``n`` postings.
    """

    def __init__(self, config: SimilarityPhaseConfig | None = None, *,
                 pair_codec: PairCodec,
                 measure: NominalSimilarityMeasure | None = None,
                 threshold: float | None = None) -> None:
        self.config = config or SimilarityPhaseConfig()
        self.filter = _CandidateFilter(measure, threshold, pair_codec)
        self.materializes_input = self.config.chunk_size is None
        if measure is not None:
            shapes = RecordShapes(measure)
            self._pair_record_bytes = shapes.pair_record
            self.output_record_bytes = self._pair_record_bytes
            if self.config.chunk_size is not None:
                self._posting_bytes = shapes.posting
                self._chunk_pair_bytes = walk_record_bytes(
                    ChunkPairRecord(0, (), (), True))
                self.output_record_bytes = self._chunked_output_bytes

    def _chunked_output_bytes(self, record: object) -> int:
        if type(record) is ChunkPairRecord:
            return self._chunk_pair_bytes + self._posting_bytes * (
                len(record.first_chunk) + len(record.second_chunk))
        return self._pair_record_bytes

    def reduce(self, key: object, values: Sequence[PostingEntry],
               context: TaskContext) -> Iterable[object]:
        frequency = len(values)
        context.increment("similarity1/elements", 1)
        stop_limit = self.config.stop_word_frequency
        if stop_limit is not None and frequency > stop_limit:
            context.increment("similarity1/stop_words_dropped", 1)
            context.increment("similarity1/stop_word_postings_dropped", frequency)
            return ()
        chunk_size = self.config.chunk_size
        if chunk_size is not None and frequency > chunk_size:
            return self._emit_chunk_pairs(key, values, chunk_size, context)
        return self.filter.pair_records(values, values, True, context,
                                        "similarity1/candidate_records")

    def _emit_chunk_pairs(self, element: object, postings: Sequence[PostingEntry],
                          chunk_size: int,
                          context: TaskContext) -> Iterator[ChunkPairRecord]:
        chunks = [tuple(postings[start:start + chunk_size])
                  for start in range(0, len(postings), chunk_size)]
        context.increment("similarity1/chunked_elements", 1)
        context.increment("similarity1/chunks", len(chunks))
        for index_p, chunk_p in enumerate(chunks):
            for index_q in range(index_p, len(chunks)):
                yield ChunkPairRecord(element=element,
                                      first_chunk=chunk_p,
                                      second_chunk=chunks[index_q],
                                      same_chunk=index_p == index_q)


# ---------------------------------------------------------------------------
# Similarity2
# ---------------------------------------------------------------------------


class Similarity2Mapper(Mapper):
    """``mapSimilarity2``: identity on pair records, expansion of chunk pairs.

    Normal Similarity1 output passes through unchanged.  Chunk-pair records
    (flagged output of an overloaded Similarity1 reducer) are expanded here
    into the candidate pair records the overloaded reducer did not produce,
    which redistributes the quadratic work across many mappers; the same
    upper-bound pruning the plain Similarity1 reducer applies runs during
    the expansion, so chunked and unchunked paths emit the identical
    candidate set.

    The emitted value is the per-element conjunctive contribution
    ``g_l(f_ik, f_jk)`` of the measure rather than the raw multiplicity pair,
    so that the dedicated combiner can pre-aggregate with a plain sum — the
    same network saving the paper attributes to its combiners.
    """

    def __init__(self, measure: NominalSimilarityMeasure, *,
                 pair_codec: PairCodec,
                 threshold: float | None = None) -> None:
        self.measure = measure
        self.filter = _CandidateFilter(
            measure if threshold is not None else None, threshold, pair_codec)
        shapes = RecordShapes(measure)
        self._pair_key_bytes = shapes.pair_key
        self._kv_bytes = shapes.pair_kv

    def check_input(self, record: object, context: TaskContext) -> None:
        """The pair key is passed through: it must have the shape sized for."""
        if isinstance(record, ChunkPairRecord):
            return
        key, _contribution = record
        if walk_record_bytes(key) != self._pair_key_bytes:
            raise JobConfigurationError(
                f"job {context.job_name!r} sizes its records by shape and "
                f"needs pair keys of one packed int and two Uni tuples of "
                f"measure {self.measure.name!r}, but the key of its first "
                f"input record is {key!r}")

    def map(self, record: object, context: TaskContext) -> Iterator[KeyValue]:
        if isinstance(record, ChunkPairRecord):
            yield from self._expand_chunks(record, context)
            return
        key, contribution = record
        yield sized_key_value(key, self._conj(contribution), None,
                              self._kv_bytes)

    def _conj(self, contribution: PairContribution) -> tuple:
        return self.measure.conj_from_pair(
            self.measure.effective_multiplicity(contribution.multiplicity_first),
            self.measure.effective_multiplicity(contribution.multiplicity_second))

    def _expand_chunks(self, record: ChunkPairRecord,
                       context: TaskContext) -> Iterator[KeyValue]:
        for key, contribution in self.filter.pair_records(
                record.first_chunk, record.second_chunk, record.same_chunk,
                context, "similarity2/chunk_expanded_records"):
            yield sized_key_value(key, self._conj(contribution), None,
                                  self._kv_bytes)


class ConjunctiveCombiner(Combiner):
    """Dedicated combiner summing conjunctive contributions per pair."""

    keeps_value_shape = True

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        self._conj_zero = measure.conj_zero()

    def combine(self, key: object, values: Sequence[tuple],
                context: TaskContext) -> Iterator[tuple]:
        accumulator = self._conj_zero
        for value in values:
            accumulator = self.measure.conj_merge(accumulator, value)
        yield accumulator


class Similarity2Reducer(Reducer):
    """``reduceSimilarity2``: combine partials into the final similarity.

    The reduce key is the packed ``(ids, Uni(Mi), Uni(Mj))`` tuple; the
    value list holds the (possibly pre-combined) conjunctive contributions
    of every shared element.  Pairs reaching the threshold are emitted as
    :class:`~repro.core.records.SimilarPair` carrying the dense integer
    identifiers, which the driver maps back to the originals.
    """

    def __init__(self, measure: NominalSimilarityMeasure, threshold: float, *,
                 pair_codec: PairCodec) -> None:
        self.measure = measure
        self.threshold = validate_threshold(threshold)
        self.pair_codec = pair_codec
        shapes = RecordShapes(measure)
        self._conj_zero = shapes.conj_zero
        self.output_record_bytes = shapes.similar_pair

    def reduce(self, key: object, values: Sequence[tuple],
               context: TaskContext) -> Iterator[SimilarPair]:
        conj = self._conj_zero
        for value in values:
            conj = self.measure.conj_merge(conj, value)
        packed, uni_first, uni_second = key
        first, second = self.pair_codec.unpack(packed)
        similarity = self.measure.combine(uni_first, uni_second, conj)
        context.increment("similarity2/pairs_evaluated", 1)
        if similarity >= self.threshold:
            context.increment("similarity2/pairs_output", 1)
            yield SimilarPair(first, second, similarity)


# ---------------------------------------------------------------------------
# Job builders
# ---------------------------------------------------------------------------


def build_similarity1_job(config: SimilarityPhaseConfig | None = None,
                          name: str = "similarity1",
                          mapper: Mapper | None = None, *,
                          pair_codec: PairCodec,
                          measure: NominalSimilarityMeasure | None = None,
                          threshold: float | None = None) -> JobSpec:
    """Build the Similarity1 job.

    ``mapper`` can be overridden so that a joining algorithm (Lookup) whose
    last step already produces element-keyed postings can fuse its map stage
    with Similarity1 and save a MapReduce step, as the paper describes.
    Passing ``measure`` and ``threshold`` enables upper-bound candidate
    pruning (``measure`` alone: the job knows its records' shapes and sizes
    them by shape, nothing is pruned); ``pair_codec`` is the codec of the
    interning pass that produced the dense multiset identifiers in the input.
    """
    return JobSpec(name=name,
                   mapper=mapper or Similarity1Mapper(measure),
                   reducer=Similarity1Reducer(config, measure=measure,
                                              threshold=threshold,
                                              pair_codec=pair_codec))


def build_similarity2_job(measure: NominalSimilarityMeasure, threshold: float,
                          config: SimilarityPhaseConfig | None = None,
                          name: str = "similarity2", *,
                          pair_codec: PairCodec,
                          prune_chunks: bool = False) -> JobSpec:
    """Build the Similarity2 job for a measure and threshold.

    ``prune_chunks`` applies the Similarity1 upper-bound pruning during
    chunk-pair expansion (it must match whether the Similarity1 job pruned,
    so both paths emit the same candidate set); ``pair_codec`` must be the
    codec the Similarity1 job packed its keys with.
    """
    resolved_config = config or SimilarityPhaseConfig()
    combiner = ConjunctiveCombiner(measure) if resolved_config.use_combiners else None
    mapper = Similarity2Mapper(measure,
                               threshold=threshold if prune_chunks else None,
                               pair_codec=pair_codec)
    return JobSpec(name=name,
                   mapper=mapper,
                   reducer=Similarity2Reducer(measure, threshold,
                                              pair_codec=pair_codec),
                   combiner=combiner)
