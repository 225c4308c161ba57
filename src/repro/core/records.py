"""Record types flowing through the V-SMART-Join MapReduce pipelines.

The paper names three record shapes explicitly:

* *raw input tuples* ``<Mi, m_{i,k}>`` — one record per (multiset, element)
  incidence, carrying the multiplicity ``f_{i,k}``;
* *joined tuples* ``<Mi, Uni(Mi), m_{i,k}>`` — the output of the joining
  phase, where every element record also carries the unilateral partial
  results of its multiset;
* *similar pairs* ``<Mi, Mj, Sim(Mi, Mj)>`` — the final output.

These are represented as small frozen dataclasses so they hash, compare and
sort deterministically, which the shuffle stage of the simulator relies on.
They carry ``slots=True`` because millions of them are alive at once in a
big join — slots cut the per-record memory (no ``__dict__``) and speed up
field access; the default slot-aware ``__getstate__`` keeps them picklable
into the disk shuffle's run files.

Between jobs the pipelines hold the first two column-wise instead
(:class:`InputColumns`, :class:`JoinedColumns`): the batch mappers read the
columns, and a record is built only when a row is read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import Hashable, Iterable, Iterator, Tuple

from repro.core.exceptions import InvalidMultisetError, ServingError
from repro.core.multiset import Element, Multiset, MultisetId

UniPartials = Tuple[float, ...]


@dataclass(frozen=True, order=True, slots=True)
class InputTuple:
    """A raw input record ``<Mi, a_k, f_{i,k}>``.

    The whole dataset handed to the MapReduce pipelines is a collection of
    these records, never whole multisets, so that entities with vast
    underlying cardinalities do not have to fit in any single machine's
    memory (a central design point of the paper).
    """

    multiset_id: MultisetId
    element: Element
    multiplicity: float

    def __post_init__(self) -> None:
        if self.multiplicity <= 0:
            raise ValueError(
                f"InputTuple multiplicity must be positive, got {self.multiplicity}")


@dataclass(frozen=True, order=True, slots=True)
class JoinedTuple:
    """A joined record ``<Mi, Uni(Mi), a_k, f_{i,k}>``.

    Produced by the joining phase (Online-Aggregation, Lookup or Sharding)
    and consumed by the Similarity1 step.  ``uni`` is the tuple of unilateral
    partial results of the owning multiset under the measure being computed.
    """

    multiset_id: MultisetId
    uni: UniPartials
    element: Element
    multiplicity: float


@dataclass(frozen=True, order=True, slots=True)
class PostingEntry:
    """One inverted-index posting ``<Mi, Uni(Mi), f_{i,k}>`` for an element.

    This is the value type of the Similarity1 map output, keyed by the
    alphabet element ``a_k``.
    """

    multiset_id: MultisetId
    uni: UniPartials
    multiplicity: float


@dataclass(frozen=True, order=True, slots=True)
class PairContribution:
    """A per-shared-element contribution ``<f_{i,k}, f_{j,k}>`` for a pair."""

    multiplicity_first: float
    multiplicity_second: float


@dataclass(frozen=True, order=True, slots=True)
class SimilarPair:
    """A final output record ``<Mi, Mj, Sim(Mi, Mj)>``."""

    first: MultisetId
    second: MultisetId
    similarity: float

    @classmethod
    def make(cls, id_a: MultisetId, id_b: MultisetId,
             similarity: float) -> "SimilarPair":
        """Build a canonically ordered similar pair."""
        if _ordered_before(id_a, id_b):
            return cls(id_a, id_b, similarity)
        return cls(id_b, id_a, similarity)

    @property
    def pair(self) -> tuple[MultisetId, MultisetId]:
        """The unordered pair as a canonical ``(first, second)`` tuple."""
        return (self.first, self.second)


class RecordColumns(Sequence):
    """A sequence of records a job holds column-wise.

    Indexing or iterating it builds the records; a
    :class:`~repro.mapreduce.dfs.Dataset` keeps it as it is, so the next
    job's batch mapper (:meth:`~repro.mapreduce.job.Mapper.map_batch`)
    reads the columns and no record is built in between.
    """

    __slots__ = ()


class FieldColumns(RecordColumns):
    """Records of one dataclass held column-wise, one list per field.

    ``__slots__`` names the columns, in the order of :attr:`record`'s
    fields; row ``i`` is ``record(column_0[i], column_1[i], ...)``, built
    only when the row is read.  A reducer returns its output as one block
    per reduce group and the reduce task's container (:meth:`extend`)
    appends the block's columns; the next job's batch mapper reads them.
    """

    __slots__ = ()

    #: The record dataclass a row stands for.
    record: type

    def __init__(self, *columns: list) -> None:
        """The given columns (one per field), or empty ones."""
        for name, column in zip(self.__slots__,
                                columns or [[] for _ in self.__slots__],
                                strict=True):
            setattr(self, name, column)

    @classmethod
    def of(cls, records: Iterable[object]) -> "FieldColumns":
        """``records`` as columns: themselves when they are already."""
        if type(records) is cls:
            return records
        columns = cls()
        columns.extend(records)
        return columns

    def columns(self) -> list[list]:
        """The columns, in field order."""
        return [getattr(self, name) for name in self.__slots__]

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __getitem__(self, index: int) -> object:
        return self.record(*(column[index] for column in self.columns()))

    def __iter__(self) -> Iterator[object]:
        return map(self.record, *self.columns())

    def append(self, record: object) -> None:
        """Append one record."""
        for column, field in zip(self.columns(), fields(self.record)):
            column.append(getattr(record, field.name))

    def extend(self, records: Iterable[object]) -> None:
        """Append a block's columns, or any records one by one."""
        if type(records) is not type(self):
            for record in records:
                self.append(record)
            return
        for column, block in zip(self.columns(), records.columns()):
            column.extend(block)


class InputColumns(FieldColumns):
    """Raw input tuples held column-wise: the interning pass's output (and
    the stop-word filter's)."""

    __slots__ = ("multiset_ids", "elements", "multiplicities")
    record = InputTuple


class JoinedColumns(FieldColumns):
    """Joined tuples held column-wise: the joining phase's output, read by
    Similarity1's mapper."""

    __slots__ = ("multiset_ids", "unis", "elements", "multiplicities")
    record = JoinedTuple


def _ordered_before(id_a: Hashable, id_b: Hashable) -> bool:
    """Return True when ``id_a`` canonically precedes ``id_b``.

    Identifiers are usually of one type (strings or ints) and directly
    comparable; the representation fallback keeps the ordering total when a
    dataset mixes identifier types.
    """
    try:
        return id_a < id_b  # type: ignore[operator]
    except TypeError:
        return repr(id_a) < repr(id_b)


def canonical_pair(id_a: MultisetId, id_b: MultisetId) -> tuple[MultisetId, MultisetId]:
    """Return the unordered pair ``{id_a, id_b}`` in canonical order."""
    if _ordered_before(id_a, id_b):
        return (id_a, id_b)
    return (id_b, id_a)


def resolve_record_type(records, allowed: tuple[type, ...]) -> type:
    """Determine the single record type of a materialised input collection.

    The input normaliser accepts collections of either whole multisets or
    raw input tuples, but never a mixture — a mixed collection is almost
    always a data-loading bug.  The first record picks the expected type
    from ``allowed``; any record of a different type raises
    :class:`~repro.core.exceptions.ServingError`.
    """
    first = records[0]
    record_type = next((candidate for candidate in allowed
                        if isinstance(first, candidate)), None)
    if record_type is None:
        expected = " or ".join(candidate.__name__ for candidate in allowed)
        raise ServingError(
            f"input records must be {expected} instances; "
            f"got {type(first).__name__}")
    for position, record in enumerate(records):
        if not isinstance(record, record_type):
            raise ServingError(
                f"mixed input record types: expected {record_type.__name__} "
                f"records but item {position} is {type(record).__name__}")
    return record_type


def explode_multisets(multisets) -> list[InputTuple]:
    """Explode an iterable of multisets into raw :class:`InputTuple` records.

    The raw-tuple form of a corpus (one record per element); the inverse
    of :func:`assemble_multisets`.  (The V-SMART-Join driver builds the same
    rows as :class:`InputColumns`, interned, straight from the multisets.)
    """
    records: list[InputTuple] = []
    for multiset in multisets:
        for element, multiplicity in multiset.items():
            records.append(InputTuple(multiset.id, element, multiplicity))
    return records


def assemble_multisets(records) -> dict[MultisetId, Multiset]:
    """Group raw :class:`InputTuple` records back into multisets.

    Multiplicities of duplicate (multiset, element) records are summed, which
    mirrors how a log-aggregation preprocessing step would behave.  A
    :class:`Multiset` holds integer multiplicities, so this is the door that
    makes them plain integers: a whole-number ``float`` (``2.0``) is taken
    as the integer it is, anything fractional, non-finite or ``bool`` raises
    :class:`~repro.core.exceptions.InvalidMultisetError` instead of being
    truncated into a different multiset.
    """
    counts: dict[MultisetId, dict[Element, int]] = {}
    for record in records:
        per_multiset = counts.setdefault(record.multiset_id, {})
        per_multiset[record.element] = (per_multiset.get(record.element, 0)
                                        + _whole_multiplicity(record))
    return {multiset_id: Multiset(multiset_id, elements)
            for multiset_id, elements in counts.items()}


def _whole_multiplicity(record: InputTuple) -> int:
    """``record``'s multiplicity as the ``int`` it denotes, or a typed error."""
    value = record.multiplicity
    if not isinstance(value, bool):
        if isinstance(value, Integral):
            return int(value)
        if isinstance(value, Real) and float(value).is_integer():
            return int(value)
    raise InvalidMultisetError(
        f"multiset {record.multiset_id!r}: multiplicity of element "
        f"{record.element!r} must be a whole number, got {value!r}")
