"""Record, statistics and size-estimation types for the MapReduce simulator.

The simulator does not measure wall-clock time.  Instead every job execution
produces a :class:`JobStats` describing how many records and bytes flowed
through each phase and how the work distributed across the simulated
machines; the cost model (:mod:`repro.mapreduce.costmodel`) converts those
loads into a deterministic simulated run time.  This mirrors how the paper
reasons about its algorithms: the bottleneck is always "the slowest machine"
(the reducer with the longest ``reduce_value_list``, the mapper holding the
largest multiset), not the aggregate work.

Bytes come from one definition of a record's size.
:func:`walk_record_bytes` is that definition, a recursive walk over any
value.  The rule the runner keeps: a record is **sized by shape when the
job is built; the walker is the definition and the fallback**.  The records
a join shuffles are fixed-arity tuples of interned ids, multiplicities and
a measure's partial results, so what one weighs follows from its shape, not
from its values: a job that knows its shapes applies the walker once, when
it is built, to a prototype record of each emit site, and hands that number
to every record the site constructs (:func:`sized_key_value`, the one place
a :class:`KeyValue` is built, takes it; a reducer or a combiner declares it,
see :mod:`repro.mapreduce.job`).  A job that declares nothing is sized by
:func:`estimate_record_bytes`, record by record as it emits — the walker's
numbers through shortcuts for the builtin types such jobs' keys and values
are made of, and the walker itself for any other type.  Either way the
number travels with the record through the combine, shuffle and reduce
phases, and a job's output sizes ride on the output
:class:`~repro.mapreduce.dfs.Dataset` to the next job: nothing is walked
twice.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import Any, Callable, Hashable, Iterable

from repro.core.records import RecordColumns  # noqa: F401  (re-exported)
from repro.telemetry import Metrics

#: Rough per-object overhead charged by the size estimator, in bytes.
_OBJECT_OVERHEAD = 16


def walk_record_bytes(value: Any) -> int:
    """The reference definition of a record's estimated size, in bytes.

    A recursive walk whose check order is the contract: ``bool`` before
    ``int``; a callable ``estimated_bytes`` beats float / text / container /
    dataclass; a subclass (``IntEnum``, ``NamedTuple``, a ``str`` subclass)
    is what its base is.  Dataclass fields declared ``compare=False`` are
    bookkeeping carried beside the record (a :class:`KeyValue`'s size), not
    payload, and are not counted.  :func:`estimate_record_bytes` falls back
    to this walker for every type it has no shortcut for, and the tests
    hold its shortcuts — and every size a job declares by shape — to it.
    """
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    size_hint = getattr(value, "estimated_bytes", None)
    if callable(size_hint):
        return int(size_hint())
    if isinstance(value, float):
        return 8
    if isinstance(value, (str, bytes)):
        return len(value) + 4
    if isinstance(value, (tuple, list, set, frozenset)):
        return _OBJECT_OVERHEAD + sum(walk_record_bytes(item) for item in value)
    if isinstance(value, dict):
        return _OBJECT_OVERHEAD + sum(
            walk_record_bytes(key) + walk_record_bytes(item)
            for key, item in value.items())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _OBJECT_OVERHEAD + sum(
            walk_record_bytes(getattr(value, fld.name))
            for fld in dataclasses.fields(value) if fld.compare)
    if hasattr(value, "items"):
        return _OBJECT_OVERHEAD + sum(
            walk_record_bytes(key) + walk_record_bytes(item)
            for key, item in value.items())
    return _OBJECT_OVERHEAD


def _text_bytes(value: str | bytes) -> int:
    return len(value) + 4


def _container_bytes(items: Iterable[Any]) -> int:
    """Overhead plus the size of every item: a tuple, a list, a record's fields.

    Keys and values are tuples of numbers and of short tuples of numbers:
    those items are settled here, not through the table and a nested call.
    """
    total = _OBJECT_OVERHEAD
    for item in items:
        cls = type(item)
        if cls is int or cls is float:
            total += 8
        elif cls is tuple:
            total += _OBJECT_OVERHEAD
            for inner in item:
                sizer = _SIZERS.get(type(inner), walk_record_bytes)
                total += sizer if type(sizer) is int else sizer(inner)
        else:
            sizer = _SIZERS.get(cls, walk_record_bytes)
            total += sizer if type(sizer) is int else sizer(item)
    return total


#: Exact type -> its size (an ``int``) or its sizer, for the builtin types
#: the walker settles in one step.  Keyed by the *exact* type, so a subclass
#: (an ``IntEnum``, a ``NamedTuple``) never lands on its base's entry: it
#: goes to the walker, like every type without an entry.
_SIZERS: dict[type, int | Callable[[Any], int]] = {
    type(None): 1, bool: 1, int: 8, float: 8,
    str: _text_bytes, bytes: _text_bytes,
    tuple: _container_bytes, list: _container_bytes}


def estimate_record_bytes(value: Any) -> int:
    """Estimate the serialised size of a record, in bytes.

    The estimate is intentionally coarse (it models a compact binary
    serialisation, not Python object overhead) but it is *consistent*, which
    is all the cost model needs: relative sizes drive the shuffle volume,
    the memory-budget checks and the per-machine load balance.

    What sizes every record a job does not size by shape.  Dispatches on the
    exact type: numbers, text, tuples and lists — what such jobs' keys and
    values are made of — are settled without recursion into the walker;
    :func:`walk_record_bytes` defines the size of every other type (a
    record dataclass, a multiset with its cached ``estimated_bytes``) and
    is what each shortcut must equal.
    """
    sizer = _SIZERS.get(type(value), walk_record_bytes)
    return sizer if type(sizer) is int else sizer(value)


@dataclass(frozen=True, slots=True)
class KeyValue:
    """An intermediate ``<key, value>`` record with an optional secondary key.

    Secondary keys implement the within-group sort order that the Google
    MapReduce supports and Hadoop does not (paper section 2); the shuffle
    stage sorts each reduce value list by the secondary key when the cluster
    profile allows it.  The in-memory shuffle moves columns, not records: a
    ``KeyValue`` is allocated per record a per-record mapper emits, per
    record the external shuffle buffers and per record of a map-only job's
    output, so the class is slotted: the saved ``__dict__`` per record is
    the single biggest memory lever in a large external shuffle.

    ``size_bytes`` is the record's estimated size, filled in once when the
    record is built (:func:`sized_key_value`: the number its emit site
    worked out from the record's shape, or a walk of this record) and read
    by every later phase instead of walking the record again; ``0`` means
    not sized yet.
    It is no part of the record: equality, hashing, ``repr`` and the
    record's own estimated size ignore it.
    """

    key: Hashable
    value: Any
    secondary: Hashable = None
    size_bytes: int = field(default=0, compare=False, repr=False)


_set_key, _set_value, _set_secondary, _set_size_bytes = (
    getattr(KeyValue, name).__set__ for name in KeyValue.__slots__)


def sized_key_value(key: Hashable, value: Any, secondary: Hashable = None,
                    size_bytes: int | None = None) -> KeyValue:
    """A :class:`KeyValue` carrying its size: ``size_bytes`` when the emit
    site knows it from the record's shape, else its own
    :func:`estimate_record_bytes`.

    The one place a ``KeyValue`` is built, once per emission, so the slots
    are filled through their descriptors: the frozen ``__init__`` pays a
    guarded ``object.__setattr__`` per field, three times the cost.
    """
    record = object.__new__(KeyValue)
    _set_key(record, key)
    _set_value(record, value)
    _set_secondary(record, secondary)
    _set_size_bytes(record, _container_bytes((key, value, secondary))
                    if size_bytes is None else size_bytes)
    return record


class Emissions:
    """What a map task emitted, in emission order, as columns.

    ``keys`` and ``values`` hold one entry per emission and ``secondaries``
    one secondary key per emission, or ``None`` when no emission has one.
    ``sizes`` is the one size every emission was declared with (its emit
    site's shape), or a column of one size per emission.  ``counts`` says
    how many emissions each input record produced, in input order: the map
    task's per-record accounting is computed from it and ``sizes``.

    A per-record mapper builds its emissions as ``KeyValue`` records; they
    are handed over as ``rows`` (with their carried sizes as the size
    column) and the three columns are read off them when the shuffle asks
    (:meth:`columns`).  A batch mapper hands over columns, which is what the
    combine task, the shuffle and the reduce task read: a ``KeyValue`` is
    built only for a map-only job's output (:meth:`key_values`).
    """

    __slots__ = ("_columns", "sizes", "counts", "rows")

    def __init__(self, keys: list, values: list, secondaries: list | None,
                 sizes: int | list[int], counts: list[int]) -> None:
        self._columns: tuple | None = (keys, values, secondaries)
        self.sizes = sizes
        self.counts = counts
        self.rows: list[KeyValue] | None = None

    @classmethod
    def of_key_values(cls, rows: list[KeyValue],
                      counts: list[int]) -> "Emissions":
        """The ``KeyValue`` records a per-record mapper emitted, as they are."""
        emissions = cls.__new__(cls)
        emissions._columns = None
        emissions.sizes = list(map(_size_bytes_of, rows))
        emissions.counts = counts
        emissions.rows = rows
        return emissions

    def columns(self) -> tuple[list, list, list | None]:
        """``(keys, values, secondaries)``; ``secondaries`` may be ``None``."""
        if self._columns is None:
            rows = self.rows
            self._columns = ([row.key for row in rows],
                             [row.value for row in rows],
                             [row.secondary for row in rows])
        return self._columns

    def followed_by(self, rows: list[KeyValue]) -> "Emissions":
        """These emissions, then ``rows`` (a mapper's cleanup emissions).

        The columns are extended by the records' fields and the size column
        by their carried sizes; the input records' ``counts`` are kept.
        """
        keys, values, secondaries = self.columns()
        sizes = self.sizes
        emitted = len(keys)
        extended = Emissions(
            keys + [row.key for row in rows],
            values + [row.value for row in rows],
            ([None] * emitted if secondaries is None else secondaries)
            + [row.secondary for row in rows],
            ([sizes] * emitted if type(sizes) is int else sizes)
            + list(map(_size_bytes_of, rows)),
            self.counts)
        if self.rows is not None:
            extended.rows = self.rows + rows
        return extended

    def key_values(self) -> list[KeyValue]:
        """The emissions as ``KeyValue`` records: a map-only job's output.

        Built here, through :func:`sized_key_value` with each emission's
        size, unless the mapper built them itself.
        """
        if self.rows is None:
            keys, values, secondaries = self._columns
            sizes = self.sizes
            self.rows = list(map(
                sized_key_value, keys, values,
                repeat(None) if secondaries is None else secondaries,
                repeat(sizes) if type(sizes) is int else sizes))
        return self.rows


_size_bytes_of = attrgetter("size_bytes")


@dataclass
class PhaseStats:
    """Load statistics for one phase (map, combine or reduce) of a job."""

    records_in: int = 0
    records_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    #: Total per-record processing units attributed to the phase.
    work_units: float = 0.0
    #: The largest amount of work any single indivisible unit required
    #: (a single map record, or a single reduce group).  The cost model uses
    #: it as a lower bound on the phase's critical path.
    max_unit_work: float = 0.0
    #: Per-machine work assignment (index -> work units).
    machine_work: dict[int, float] = field(default_factory=dict)

    def add_machine_work(self, machine: int, work: float) -> None:
        """Attribute ``work`` units to ``machine``."""
        self.machine_work[machine] = self.machine_work.get(machine, 0.0) + work
        self.work_units += work
        if work > self.max_unit_work:
            self.max_unit_work = work

    @property
    def max_machine_work(self) -> float:
        """The load of the most loaded machine in this phase."""
        if not self.machine_work:
            return 0.0
        return max(self.machine_work.values())

    @property
    def skew(self) -> float:
        """Ratio of the most loaded machine to the average machine load."""
        if not self.machine_work:
            return 0.0
        average = self.work_units / len(self.machine_work)
        if average == 0.0:
            return 0.0
        return self.max_machine_work / average


@dataclass
class JobStats:
    """Complete load statistics for one simulated MapReduce job."""

    job_name: str = ""
    map: PhaseStats = field(default_factory=PhaseStats)
    combine: PhaseStats = field(default_factory=PhaseStats)
    reduce: PhaseStats = field(default_factory=PhaseStats)
    #: Bytes moved across the simulated network during the shuffle
    #: (the map-output bytes after combining).
    shuffle_bytes: int = 0
    #: Number of distinct reduce keys.
    reduce_groups: int = 0
    #: Size, in records, of the longest reduce value list.
    max_group_records: int = 0
    #: Size, in bytes, of the longest reduce value list.
    max_group_bytes: int = 0
    #: Bytes of side data (for example a lookup table) loaded by every task.
    side_data_bytes: int = 0
    #: Number of machines the job ran on.
    num_machines: int = 0
    #: Peak memory required by any single task, in bytes.
    peak_task_memory: int = 0
    #: Total intermediate bytes written to local disks.
    spilled_bytes: int = 0
    #: The job's counters: every task of every phase counts into this map.
    counters: dict[str, int] = field(default_factory=Metrics)
    #: Simulated run time in seconds, filled in by the cost model.
    simulated_seconds: float = 0.0
