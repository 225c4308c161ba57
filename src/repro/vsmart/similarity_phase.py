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

Three hot-path refinements go beyond the paper:

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
  the only key form: every candidate-emitting stage is built with the codec;
* **batch-at-a-time candidates**: both steps map their whole input as
  columns (``map_batch``); Similarity1 emits each posting list's
  survivors as columns (:class:`CandidateColumns`), and Similarity2 maps
  those columns to ``Conj`` contributions and folds them without building a
  record per candidate (:meth:`Similarity2Mapper.map_batch`).  A measure's
  declarations select the inline code: ``bound_kernel`` the pruning bound,
  ``conj_kernel`` the contributions and their folds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add, attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.exceptions import JobConfigurationError
from repro.core.interning import PairCodec
from repro.core.records import (
    JoinedColumns,
    JoinedTuple,
    PairContribution,
    PostingEntry,
    SimilarPair,
)
from repro.mapreduce.job import Combiner, JobSpec, Mapper, Reducer, TaskContext
from repro.mapreduce.types import (
    Emissions,
    RecordColumns,
    estimate_record_bytes,
    walk_record_bytes,
)
from repro.similarity.base import NominalSimilarityMeasure, validate_threshold
from repro.similarity.kernels import (
    BOUND_MIN_OVER_UNION,
    CONJ_GENERIC,
    CONJ_SUM_MIN,
    bound_kernel_kind,
    conj_kernel_kind,
)
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


class CandidateColumns(RecordColumns):
    """Candidate records held column-wise: Similarity1's output.

    Row ``i`` is the candidate record ``((packed[i], uni_first[i],
    uni_second[i]), PairContribution(mult_first[i], mult_second[i]))`` —
    built only when the row is read.  A chunk pair of an overloaded element
    is a row too: the :class:`ChunkPairRecord` sits in ``packed``, ``None``
    in the other columns, and ``chunk_rows`` lists those rows in order.
    The Similarity1 reducer returns one block per posting list and the
    reduce task's container (:meth:`extend`) appends the block's columns;
    the Similarity2 mapper reads the columns.
    """

    __slots__ = ("packed", "uni_first", "uni_second", "mult_first",
                 "mult_second", "chunk_rows")

    def __init__(self) -> None:
        self.packed: list = []
        self.uni_first: list = []
        self.uni_second: list = []
        self.mult_first: list = []
        self.mult_second: list = []
        self.chunk_rows: list[int] = []

    def __len__(self) -> int:
        return len(self.packed)

    def __getitem__(self, index: int) -> object:
        packed = self.packed[index]
        if type(packed) is ChunkPairRecord:
            return packed
        return ((packed, self.uni_first[index], self.uni_second[index]),
                PairContribution(self.mult_first[index],
                                 self.mult_second[index]))

    def __iter__(self) -> Iterator[object]:
        for packed, uni_first, uni_second, mult_first, mult_second in zip(
                self.packed, self.uni_first, self.uni_second,
                self.mult_first, self.mult_second):
            if type(packed) is ChunkPairRecord:
                yield packed
            else:
                yield ((packed, uni_first, uni_second),
                       PairContribution(mult_first, mult_second))

    def append(self, record: object) -> None:
        """Append one record: a candidate record or a chunk pair."""
        if type(record) is ChunkPairRecord:
            self.chunk_rows.append(len(self.packed))
            self.packed.append(record)
            uni_first = uni_second = mult_first = mult_second = None
        else:
            (packed, uni_first, uni_second), contribution = record
            self.packed.append(packed)
            mult_first = contribution.multiplicity_first
            mult_second = contribution.multiplicity_second
        self.uni_first.append(uni_first)
        self.uni_second.append(uni_second)
        self.mult_first.append(mult_first)
        self.mult_second.append(mult_second)

    def extend(self, records: Iterable[object]) -> None:
        """Append a block's columns, or any records one by one."""
        if type(records) is not CandidateColumns:
            for record in records:
                self.append(record)
            return
        offset = len(self.packed)
        self.chunk_rows.extend(offset + row for row in records.chunk_rows)
        self.packed.extend(records.packed)
        self.uni_first.extend(records.uni_first)
        self.uni_second.extend(records.uni_second)
        self.mult_first.extend(records.mult_first)
        self.mult_second.extend(records.mult_second)

    def segments(self) -> Iterator[tuple[int, int, ChunkPairRecord | None]]:
        """``(start, stop, chunk)``: the candidate rows ``start:stop`` that
        precede each chunk pair (the last with ``chunk`` ``None``)."""
        start = 0
        for row in self.chunk_rows:
            yield start, row, self.packed[row]
            start = row + 1
        yield start, len(self.packed), None


_posting_fields = attrgetter("multiset_id", "uni", "multiplicity")


class _CandidateFilter:
    """Shared pruning/packing state of the candidate-emitting stages.

    Pruning activates only when both a measure and a threshold are supplied
    *and* the measure actually admits a ``Uni``-only bound (measures whose
    :meth:`~repro.similarity.base.NominalSimilarityMeasure.conj_upper_bound`
    returns ``None`` would bound every pair by 1.0, so checking them would
    be pure overhead).  A measure that declares the bound's closed form
    (:attr:`~repro.similarity.base.NominalSimilarityMeasure.bound_kernel`)
    has it inlined; any other calls its ``similarity_upper_bound``.
    """

    __slots__ = ("measure", "threshold", "pair_codec", "prunes", "inline_bound")

    def __init__(self, measure: NominalSimilarityMeasure | None,
                 threshold: float | None, pair_codec: PairCodec) -> None:
        self.measure = measure
        self.threshold = (None if threshold is None
                          else validate_threshold(threshold))
        self.pair_codec = pair_codec
        self.prunes = (measure is not None and self.threshold is not None
                       and measure.conj_upper_bound(
                           measure.uni_zero(), measure.uni_zero()) is not None)
        self.inline_bound = (self.prunes and bound_kernel_kind(measure)
                             == BOUND_MIN_OVER_UNION)

    def candidates(self, first: Sequence[PostingEntry],
                   second: Sequence[PostingEntry], same: bool,
                   into: CandidateColumns) -> tuple[int, int]:
        """Append every surviving candidate of ``first`` x ``second`` to
        ``into``'s columns; return how many survived and how many were pruned.

        With ``same`` the two are one posting list (or chunk) and only its
        unordered pairs are produced.  A multiset is not paired with itself,
        a pair that provably cannot reach the threshold is pruned, and each
        other one becomes the row ``((packed_ids, Uni(Mi), Uni(Mj)), <f_ik,
        f_jk>)``: identifiers are dense interned ints, so numeric id order
        *is* canonical order and the key holds one int for both.  Rows come
        in the order the pairs are visited.  The join's innermost loop: what
        does not depend on the pair is read before it, and the caller counts
        (an update costs a call).
        """
        survivors: list[tuple] = []
        survive = survivors.append
        shift = self.pair_codec.shift
        threshold = self.threshold
        prunes = self.prunes
        inline = self.inline_bound
        upper_bound = self.measure.similarity_upper_bound if prunes else None
        rows = list(map(_posting_fields, second))
        pruned = 0
        for index_i, (id_i, uni_i, mult_i) in enumerate(
                rows if same else map(_posting_fields, first)):
            # The bound's operand: the scalar Uni when it is inlined.
            a = uni_i[0] if inline else uni_i
            for id_j, uni_j, mult_j in rows[index_i + 1:] if same else rows:
                if id_i == id_j:
                    continue
                if inline:
                    # min_over_union, in Ruzicka's combine order.
                    b = uni_j[0]
                    m = b if b < a else a
                    union = a + b - m
                    if union <= 0 or m / union < threshold:
                        pruned += 1
                        continue
                elif prunes and upper_bound(uni_i, uni_j) < threshold:
                    pruned += 1
                    continue
                if id_i <= id_j:
                    survive(((id_i << shift) | id_j, uni_i, uni_j, mult_i, mult_j))
                else:
                    survive(((id_j << shift) | id_i, uni_j, uni_i, mult_j, mult_i))
        if survivors:
            # One row tuple per survivor, turned into the five columns once.
            packed, uni_first, uni_second, mult_first, mult_second = zip(*survivors)
            into.packed.extend(packed)
            into.uni_first.extend(uni_first)
            into.uni_second.extend(uni_second)
            into.mult_first.extend(mult_first)
            into.mult_second.extend(mult_second)
        return len(survivors), pruned


# ---------------------------------------------------------------------------
# Similarity1
# ---------------------------------------------------------------------------


class Similarity1Mapper(InternedInputMapper):
    """``mapSimilarity1``: re-key joined tuples by their alphabet element.

    ``<Mi, Uni(Mi), m_ik>  ->  <a_k, <Mi, Uni(Mi), f_ik>>``

    A batch mapper: it reads the joining phase's :class:`JoinedColumns`
    and emits one posting per joined tuple, as columns.  Built with the
    ``measure`` whose ``Uni`` the joined tuples carry, the mapper knows what
    a posting weighs; without one each emission is sized generically and
    the input's shape is not checked.
    """

    columns = JoinedColumns

    def __init__(self, measure: NominalSimilarityMeasure | None = None) -> None:
        self._kv_bytes = (None if measure is None
                          else RecordShapes(measure).posting_kv)

    def check_input(self, records: Sequence[JoinedTuple],
                    context: TaskContext) -> None:
        if self._kv_bytes is not None:
            super().check_input(records, context)

    def map_batch(self, records: Sequence[JoinedTuple],
                  context: TaskContext) -> Emissions:
        columns = JoinedColumns.of(records)
        elements = columns.elements
        postings = list(map(PostingEntry, columns.multiset_ids, columns.unis,
                            columns.multiplicities))
        sizes = self._kv_bytes
        if sizes is None:
            sizes = [estimate_record_bytes((element, posting, None))
                     for element, posting in zip(elements, postings)]
        return Emissions(elements, postings, None, sizes, [1] * len(postings))


class Similarity1Reducer(Reducer):
    """``reduceSimilarity1``: emit candidate pairs for each element.

    For every unordered pair of postings in the element's reduce value list
    the reducer outputs ``<<Mi, Mj, Uni(Mi), Uni(Mj)>, <f_ik, f_jk>>``, with
    ``Mi, Mj`` packed into one int by ``pair_codec``.  A batch reducer
    (:meth:`reduce_batch`): one pass over the task's posting lists extends
    the job's :class:`CandidateColumns` output by each list's survivors.
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

    def new_output(self) -> CandidateColumns:
        return CandidateColumns()

    def _chunked_output_bytes(self, records: Iterable[object]) -> list[int]:
        # The task's output holds candidate rows and chunk pairs (the
        # cleanup's list, nothing).
        if type(records) is not CandidateColumns:
            columns = CandidateColumns()
            columns.extend(records)
            records = columns
        sizes = [self._pair_record_bytes] * len(records)
        for row in records.chunk_rows:
            chunk = records.packed[row]
            sizes[row] = self._chunk_pair_bytes + self._posting_bytes * (
                len(chunk.first_chunk) + len(chunk.second_chunk))
        return sizes

    def reduce_batch(self, groups: Iterable[tuple[object, list[PostingEntry]]],
                     context: TaskContext) -> tuple[CandidateColumns, list[int]]:
        """Every posting list's candidates, in one pass over the groups.

        The counters are incremented once, at the end, in the order the
        per-list loop first counted them: ``elements``, then each other
        counter as the first list that counts it comes up.
        """
        output = CandidateColumns()
        counts: list[int] = []
        count = counts.append
        candidates = self.filter.candidates
        stop_limit = self.config.stop_word_frequency
        chunk_size = self.config.chunk_size
        # Counter -> total, in first-count order; the totals of the two
        # per-list counters are kept in locals and written at the end.
        tally = {"similarity1/elements": 0}
        emitted = pruned = 0
        for key, values in groups:
            frequency = len(values)
            if frequency < 2:
                # No pair to form, and too short to be a stop word (the
                # limit is at least 1) or to be chunked (at least 2).
                count(0)
            elif stop_limit is not None and frequency > stop_limit:
                _tally(tally, "similarity1/stop_words_dropped", 1)
                _tally(tally, "similarity1/stop_word_postings_dropped", frequency)
                count(0)
            elif chunk_size is not None and frequency > chunk_size:
                before = len(output)
                output.extend(self._chunk_pairs(key, values, chunk_size, tally))
                count(len(output) - before)
            else:
                survived, dropped = candidates(values, values, True, output)
                if survived:
                    if not emitted:
                        tally["similarity1/candidate_records"] = 0
                    emitted += survived
                if dropped:
                    if not pruned:
                        tally["similarity1/candidates_pruned"] = 0
                    pruned += dropped
                count(survived)
        tally["similarity1/elements"] = len(counts)
        if emitted:
            tally["similarity1/candidate_records"] = emitted
        if pruned:
            tally["similarity1/candidates_pruned"] = pruned
        for name, amount in tally.items():
            if amount:
                context.increment(name, amount)
        return output, counts

    def _chunk_pairs(self, element: object, postings: Sequence[PostingEntry],
                     chunk_size: int, tally: dict[str, int]
                     ) -> Iterator[ChunkPairRecord]:
        chunks = [tuple(postings[start:start + chunk_size])
                  for start in range(0, len(postings), chunk_size)]
        _tally(tally, "similarity1/chunked_elements", 1)
        _tally(tally, "similarity1/chunks", len(chunks))
        for index_p, chunk_p in enumerate(chunks):
            for index_q in range(index_p, len(chunks)):
                yield ChunkPairRecord(element=element,
                                      first_chunk=chunk_p,
                                      second_chunk=chunks[index_q],
                                      same_chunk=index_p == index_q)


def _tally(tally: dict[str, int], name: str, amount: int) -> None:
    """Add ``amount`` to a batch reducer's local count of ``name``."""
    tally[name] = tally.get(name, 0) + amount


# ---------------------------------------------------------------------------
# Similarity2
# ---------------------------------------------------------------------------


def _conj_contributions(measure: NominalSimilarityMeasure
                        ) -> Callable[[Sequence, Sequence], list[tuple]]:
    """Each candidate's ``Conj`` contribution, from two multiplicity columns.

    Row ``r`` is ``conj_from_pair(effective_multiplicity(f_ik),
    effective_multiplicity(f_jk))``.  A measure with a scalar conjunctive
    kernel (:attr:`~repro.similarity.base.NominalSimilarityMeasure.conj_kernel`)
    has it worked out inline — the same float, as the kernel declaration
    promises; a ``generic`` one is called per row, as is any column holding a
    multiplicity that is not positive.
    """
    effective = measure.effective_multiplicity
    conj_from_pair = measure.conj_from_pair

    def per_call(firsts: Sequence, seconds: Sequence) -> list[tuple]:
        return [conj_from_pair(effective(first), effective(second))
                for first, second in zip(firsts, seconds)]

    kind = conj_kernel_kind(measure)
    if kind == CONJ_GENERIC:
        return per_call
    if measure.uses_underlying_set:
        unit = conj_from_pair(1.0, 1.0)

        def inline(firsts: Sequence, seconds: Sequence) -> list[tuple]:
            return [unit] * len(firsts)
    elif kind == CONJ_SUM_MIN:
        def inline(firsts: Sequence, seconds: Sequence) -> list[tuple]:
            # min(first, second): first unless second < first.
            return [(first if first <= second else second,)
                    for first, second in zip(map(float, firsts),
                                             map(float, seconds))]
    else:
        def inline(firsts: Sequence, seconds: Sequence) -> list[tuple]:
            return [(first * second,)
                    for first, second in zip(map(float, firsts),
                                             map(float, seconds))]

    def contributions(firsts: Sequence, seconds: Sequence) -> list[tuple]:
        if firsts and (min(firsts) <= 0 or min(seconds) <= 0):
            return per_call(firsts, seconds)
        return inline(firsts, seconds)

    return contributions


def _conj_fold(measure: NominalSimilarityMeasure
               ) -> Callable[[Sequence[tuple]], tuple]:
    """Fold a value list of ``Conj`` contributions from ``conj_zero``.

    In value-list order, as ``conj_merge`` folds: a scalar kernel's
    contributions are one-element sums, so the fold adds their floats from
    ``conj_zero`` in that order — ``conj_merge``'s IEEE sequence — in one C
    loop; a ``generic`` measure's are merged with ``conj_merge``.
    """
    zero = measure.conj_zero()
    if conj_kernel_kind(measure) != CONJ_GENERIC:
        (start,) = zero

        def fold_scalar(values: Sequence[tuple]) -> tuple:
            return (reduce(add, map(_first, values), start),)

        return fold_scalar
    merge = measure.conj_merge

    def fold(values: Sequence[tuple]) -> tuple:
        accumulator = zero
        for value in values:
            accumulator = merge(accumulator, value)
        return accumulator

    return fold


_first = itemgetter(0)


class Similarity2Mapper(Mapper):
    """``mapSimilarity2``: identity on pair records, expansion of chunk pairs.

    Normal Similarity1 output passes through unchanged.  Chunk-pair records
    (flagged output of an overloaded Similarity1 reducer) are expanded here,
    in place, into the candidate pair records the overloaded reducer did not
    produce, which redistributes the quadratic work across many mappers; the
    same upper-bound pruning the plain Similarity1 reducer applies runs
    during the expansion, so chunked and unchunked paths emit the identical
    candidate set.

    The emitted value is the per-element conjunctive contribution
    ``g_l(f_ik, f_jk)`` of the measure rather than the raw multiplicity pair,
    so that the dedicated combiner can pre-aggregate with a plain sum — the
    same network saving the paper attributes to its combiners.

    A batch mapper: :meth:`map_batch` reads Similarity1's
    :class:`CandidateColumns` and returns the keys and contributions as
    columns, every emission of the one declared size.
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
        self._contributions = _conj_contributions(measure)

    def check_input(self, records: Sequence[object],
                    context: TaskContext) -> None:
        """The pair key is passed through: it must have the shape sized for."""
        record = records[0]
        if isinstance(record, ChunkPairRecord):
            return
        key, _contribution = record
        if walk_record_bytes(key) != self._pair_key_bytes:
            raise JobConfigurationError(
                f"job {context.job_name!r} sizes its records by shape and "
                f"needs pair keys of one packed int and two Uni tuples of "
                f"measure {self.measure.name!r}, but the key of its first "
                f"input record is {key!r}")

    def map_batch(self, records: Sequence[object],
                  context: TaskContext) -> Emissions:
        if type(records) is not CandidateColumns:
            columns = CandidateColumns()
            columns.extend(records)
            records = columns
        keys: list[tuple] = []
        values: list[tuple] = []
        counts: list[int] = []
        for start, stop, chunk in records.segments():
            keys.extend(zip(records.packed[start:stop],
                            records.uni_first[start:stop],
                            records.uni_second[start:stop]))
            values.extend(self._contributions(records.mult_first[start:stop],
                                              records.mult_second[start:stop]))
            counts.extend(repeat(1, stop - start))
            if chunk is not None:
                block = CandidateColumns()
                survived, pruned = self.filter.candidates(
                    chunk.first_chunk, chunk.second_chunk, chunk.same_chunk,
                    block)
                if survived:
                    context.increment("similarity2/chunk_expanded_records",
                                      survived)
                if pruned:
                    context.increment("similarity1/candidates_pruned", pruned)
                keys.extend(zip(block.packed, block.uni_first,
                                block.uni_second))
                values.extend(self._contributions(block.mult_first,
                                                  block.mult_second))
                counts.append(survived)
        return Emissions(keys, values, None, self._kv_bytes, counts)


class ConjunctiveCombiner(Combiner):
    """Dedicated combiner summing conjunctive contributions per pair."""

    keeps_value_shape = True

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.measure = measure
        self._fold = _conj_fold(measure)

    def combine(self, key: object, values: Sequence[tuple],
                context: TaskContext) -> Iterable[tuple]:
        return (self._fold(values),)


class Similarity2Reducer(Reducer):
    """``reduceSimilarity2``: combine partials into the final similarity.

    The reduce key is the packed ``(ids, Uni(Mi), Uni(Mj))`` tuple; the
    value list holds the (possibly pre-combined) conjunctive contributions
    of every shared element.  Pairs reaching the threshold are emitted as
    :class:`~repro.core.records.SimilarPair` carrying the dense integer
    identifiers, which the driver maps back to the originals.  A batch
    reducer (:meth:`reduce_batch`): one pass over the task's pairs.
    """

    def __init__(self, measure: NominalSimilarityMeasure, threshold: float, *,
                 pair_codec: PairCodec) -> None:
        self.measure = measure
        self.threshold = validate_threshold(threshold)
        self.pair_codec = pair_codec
        self._fold = _conj_fold(measure)
        self.output_record_bytes = RecordShapes(measure).similar_pair

    def reduce_batch(self, groups: Iterable[tuple[tuple, list[tuple]]],
                     context: TaskContext) -> tuple[list[SimilarPair], list[int]]:
        """Every pair's similarity, in one pass over the groups; the
        counters are incremented once, at the end, ``pairs_evaluated``
        first."""
        output: list[SimilarPair] = []
        emit = output.append
        counts: list[int] = []
        count = counts.append
        fold = self._fold
        combine = self.measure.combine
        unpack = self.pair_codec.unpack
        threshold = self.threshold
        for (packed, uni_first, uni_second), values in groups:
            similarity = combine(uni_first, uni_second, fold(values))
            if similarity >= threshold:
                emit(SimilarPair(*unpack(packed), similarity))
                count(1)
            else:
                count(0)
        if counts:
            context.increment("similarity2/pairs_evaluated", len(counts))
        if output:
            context.increment("similarity2/pairs_output", len(output))
        return output, counts


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
