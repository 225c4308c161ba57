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
job is built; the walker is the definition and the fallback**.  An emitted
record is the 3-tuple ``(key, value, secondary)``, and the records a join
shuffles are fixed-arity tuples of interned ids, multiplicities and a
measure's partial results, so what one weighs follows from its shape, not
from its values: a job that knows its shapes applies the walker once, when
it is built, to a prototype record of each emit site, and declares that
number for every record the site emits (a batch mapper in its
:class:`Emissions`; a reducer or a combiner declares it, see
:mod:`repro.mapreduce.job`).  A job that declares nothing is sized by
:func:`estimate_record_bytes`, record by record as it emits — the walker's
numbers through shortcuts for the builtin types such jobs' keys and values
are made of, and the walker itself for any other type.  Either way the
number travels beside the record, in a size column, through the combine,
shuffle and reduce phases, and a job's output sizes ride on the output
:class:`~repro.mapreduce.dfs.Dataset` to the next job: nothing is walked
twice.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Callable, Iterable, Sequence

from repro.core.records import RecordColumns  # noqa: F401  (re-exported)
from repro.telemetry import Metrics

#: Rough per-object overhead charged by the size estimator, in bytes.
_OBJECT_OVERHEAD = 16


def walk_record_bytes(value: Any) -> int:
    """The reference definition of a record's estimated size, in bytes.

    A recursive walk whose check order is the contract: ``bool`` before
    ``int``; a callable ``estimated_bytes`` beats float / text / container /
    dataclass; a subclass (``IntEnum``, ``NamedTuple``, a ``str`` subclass)
    is what its base is.  :func:`estimate_record_bytes` falls back to this
    walker for every type it has no shortcut for, and the tests hold its
    shortcuts — and every size a job declares by shape — to it.
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
            for fld in dataclasses.fields(value))
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


def concat_column(runs: Sequence[Any], counts: Sequence[int]) -> Any:
    """Runs of a size or secondary-key column, end to end.

    A run is a sequence with one entry per record, or one value that stands
    for every record of the run (a declared ``int`` size, ``None`` for no
    secondary keys); ``counts`` are the runs' record counts.  Runs that
    share one value stay that value; otherwise every run is spelt out and
    the runs are joined.
    """
    first = runs[0]
    if (first is None or type(first) is int) and all(
            run == first for run in runs):
        return first
    return list(chain.from_iterable(
        [run] * count if run is None or type(run) is int else run
        for run, count in zip(runs, counts)))


class Emissions:
    """What a map task emitted, in emission order, as columns.

    ``keys`` and ``values`` hold one entry per emission and ``secondaries``
    one secondary key per emission, or ``None`` when no emission has one.
    ``sizes`` is the one size every emission was declared with (its emit
    site's shape), or a column of one size per emission.  ``counts`` says
    how many emissions each input record produced, in input order: the map
    task's per-record accounting is computed from it and ``sizes``.

    Row ``i`` is the record ``(keys[i], values[i], secondaries[i])``: the
    per-record form, which a per-record mapper emits, a map-only job
    outputs and the generic sizer weighs.  The combine task, the shuffle
    and the reduce task read the columns.
    """

    __slots__ = ("keys", "values", "secondaries", "sizes", "counts")

    def __init__(self, keys: list, values: list, secondaries: list | None,
                 sizes: int | list[int], counts: list[int]) -> None:
        self.keys = keys
        self.values = values
        self.secondaries = secondaries
        self.sizes = sizes
        self.counts = counts

    def columns(self) -> tuple[list, list, list | None]:
        """``(keys, values, secondaries)``; ``secondaries`` may be ``None``."""
        return self.keys, self.values, self.secondaries

    def followed_by(self, more: "Emissions") -> "Emissions":
        """These emissions, then ``more`` (a mapper's cleanup emissions).

        The input records' ``counts`` are these emissions' own.
        """
        counts = (len(self.keys), len(more.keys))
        return Emissions(
            self.keys + more.keys, self.values + more.values,
            concat_column((self.secondaries, more.secondaries), counts),
            concat_column((self.sizes, more.sizes), counts), self.counts)


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
