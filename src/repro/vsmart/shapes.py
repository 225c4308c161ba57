"""What the records of the V-SMART-Join pipelines weigh, by shape.

Every record the pipelines move is a fixed-arity tuple of interned ids,
multiplicities and one measure's ``Uni`` / ``Conj`` partial results, so its
modelled size (:func:`~repro.mapreduce.types.walk_record_bytes`, the one
definition) is a function of its *shape*: the same number for every record
an emit site ever builds.  :class:`RecordShapes` is the catalogue of those
shapes for one measure.  Each size is the walker applied to a prototype
record — every id, element, tag, fingerprint and count ``0``, every
multiplicity ``1``, every partial result the measure's identity element, so
a measure of any arity is covered — and none is arithmetic written by hand.

The jobs read their emit sites' sizes here when they are built and hand
them to the records they construct; the planner prices its plans with the
same numbers.  What makes a prototype stand for every real record is the
input door: :func:`~repro.core.records.assemble_multisets` admits only
whole-number multiplicities, the driver's interning pass turns every
multiset id and element into a dense ``int``, and each map task checks its
first row (:class:`InternedInputMapper`).
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from typing import Any, Sequence

from repro.core.exceptions import JobConfigurationError
from repro.core.records import (
    InputColumns,
    InputTuple,
    JoinedTuple,
    PairContribution,
    PostingEntry,
    SimilarPair,
)
from repro.mapreduce.job import Mapper, TaskContext
from repro.mapreduce.types import KeyValue, walk_record_bytes
from repro.similarity.base import NominalSimilarityMeasure


def _keyed(key: Any, value: Any, secondary: Any = None) -> int:
    """The size of the shuffled ``KeyValue`` around a prototype key and value."""
    return walk_record_bytes(KeyValue(key, value, secondary))


#: The two shapes that hold no partial result, so need no measure: the raw
#: input record ``<Mi, a_k, f_ik>`` and the stop-word filter's shuffled
#: ``a_k -> <Mi, f_ik>``.
INPUT_TUPLE_BYTES = walk_record_bytes(InputTuple(0, 0, 1))
STOP_WORD_KV_BYTES = _keyed(0, (0, 1))


class RecordShapes:
    """The size of every record shape of the pipelines, for one measure.

    ``uni_zero`` / ``conj_zero`` are the measure's identity elements, read
    once here: the prototypes are built from them and the combiners and
    reducers that fold partial results start from them.  A size is worked
    out when it is first read (a job reads one to three of them) and kept.
    """

    def __init__(self, measure: NominalSimilarityMeasure) -> None:
        self.uni_zero = measure.uni_zero()
        self.conj_zero = measure.conj_zero()

    # -- records ---------------------------------------------------------------

    @cached_property
    def input_tuple(self) -> int:
        """``<Mi, a_k, f_ik>``."""
        return INPUT_TUPLE_BYTES

    @cached_property
    def joined_tuple(self) -> int:
        """``<Mi, Uni(Mi), a_k, f_ik>``: the joining phase's output."""
        return walk_record_bytes(JoinedTuple(0, self.uni_zero, 0, 1))

    @cached_property
    def table_entry(self) -> int:
        """``<Mi, Uni(Mi)>``: a Lookup1 / Sharding1 output record."""
        return walk_record_bytes((0, self.uni_zero))

    def table(self, entries: int) -> int:
        """The ``{Mi: Uni(Mi)}`` side-data table of ``entries`` multisets."""
        empty = walk_record_bytes({})
        return empty + entries * (walk_record_bytes({0: self.uni_zero}) - empty)

    @cached_property
    def _posting(self) -> PostingEntry:
        return PostingEntry(0, self.uni_zero, 1)

    @cached_property
    def posting(self) -> int:
        """``<Mi, Uni(Mi), f_ik>``, the value of an element's posting list."""
        return walk_record_bytes(self._posting)

    @cached_property
    def _pair_key(self) -> tuple:
        return (0, self.uni_zero, self.uni_zero)

    @cached_property
    def pair_key(self) -> int:
        """``<Mi, Mj, Uni(Mi), Uni(Mj)>``, both ids packed into one int."""
        return walk_record_bytes(self._pair_key)

    @cached_property
    def pair_record(self) -> int:
        """``<pair key, <f_ik, f_jk>>``: a Similarity1 candidate record."""
        return walk_record_bytes((self._pair_key, PairContribution(1, 1)))

    @cached_property
    def similar_pair(self) -> int:
        """``<Mi, Mj, Sim(Mi, Mj)>``."""
        return walk_record_bytes(SimilarPair(0, 0, 0.0))

    # -- shuffled records, one per map emit site -------------------------------

    @cached_property
    def oa_uni_kv(self) -> int:
        """Online-Aggregation: ``Mi -> <tag, g(f_ik)>`` under secondary key 0."""
        return _keyed(0, (0, self.uni_zero), 0)

    @cached_property
    def oa_element_kv(self) -> int:
        """Online-Aggregation: ``Mi -> <tag, a_k, f_ik>`` under secondary key 1."""
        return _keyed(0, (0, 0, 1), 0)

    @cached_property
    def lookup1_kv(self) -> int:
        """Lookup1: ``Mi -> g(f_ik)``."""
        return _keyed(0, self.uni_zero)

    @cached_property
    def sharding1_kv(self) -> int:
        """Sharding1: ``Mi -> <g(f_ik), 1>``."""
        return _keyed(0, (self.uni_zero, 1))

    @cached_property
    def sharded_kv(self) -> int:
        """Sharding2: ``<Mi, fingerprint> -> <tag, Uni(Mi), a_k, f_ik>``."""
        return _keyed((0, 0), (0, self.uni_zero, 0, 1))

    @cached_property
    def unsharded_kv(self) -> int:
        """Sharding2: ``<Mi, -1> -> <tag, a_k, f_ik>``."""
        return _keyed((0, 0), (0, 0, 1))

    @cached_property
    def posting_kv(self) -> int:
        """Similarity1 (and Lookup2): ``a_k -> <Mi, Uni(Mi), f_ik>``."""
        return _keyed(0, self._posting)

    @cached_property
    def pair_kv(self) -> int:
        """Similarity2: ``pair key -> Conj contribution``."""
        return _keyed(self._pair_key, self.conj_zero)


class InternedInputMapper(Mapper):
    """A batch mapper of interned tuples whose emissions are sized by shape.

    The sizes its emit sites were built with hold for dense-integer multiset
    ids and elements and plain-number multiplicities only (a string weighs
    its length, a ``bool`` one byte).  Each task checks the first row of
    its input, so a job run on raw tuples is a loud error and not a
    silently different byte count, and reads the input into columns once:
    the interning pass hands columns over, any other sequence of tuples is
    read into them.
    """

    #: The columns the mapper reads its input into.
    columns: type = InputColumns

    def check_input(self, records: Sequence[Any], context: TaskContext) -> None:
        """Raise unless the first row has the interned shape the sizes assume."""
        if type(records) is self.columns:
            row = (records.multiset_ids[0], records.elements[0],
                   records.multiplicities[0])
        else:
            row = tuple(getattr(records[0], field, None)
                        for field in _CHECKED_FIELDS)
        for field, value, allowed in zip(_CHECKED_FIELDS, row,
                                         ((int,), (int,), (int, float))):
            if type(value) not in allowed:
                raise JobConfigurationError(
                    f"job {context.job_name!r} sizes its records by shape and "
                    f"needs interned input (dense int ids, see "
                    f"InterningContext.intern_multisets), but the {field} of "
                    f"its first input record is {value!r}")

    @staticmethod
    def positive_rows(records: Sequence[Any]) -> tuple[InputColumns, list[int]]:
        """The input rows that map, as columns, and each input row's count.

        A row maps when its multiplicity is positive: count 1, else 0 and
        the row is left out of the columns.
        """
        columns = InputColumns.of(records)
        multiplicities = columns.multiplicities
        if not multiplicities or min(multiplicities) > 0:
            return columns, [1] * len(multiplicities)
        keep = [multiplicity > 0 for multiplicity in multiplicities]
        return (InputColumns(*(list(compress(column, keep))
                               for column in columns.columns())),
                list(map(int, keep)))


_CHECKED_FIELDS = ("multiset_id", "element", "multiplicity")
