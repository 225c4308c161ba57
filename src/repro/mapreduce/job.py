"""Job specifications and the Mapper / Combiner / Reducer programming model.

The programming model mirrors the paper's section 2:

* a **mapper** transforms one input record into zero or more
  ``<key, value>`` pairs (optionally with a *secondary key* that controls
  the within-group sort order when the engine profile supports it): the
  record ``(key, value, secondary)``;
* a **dedicated combiner** pre-aggregates the values of a key on the mapper
  machine before the shuffle (the paper explicitly chooses dedicated
  combiners over on-mapper combining for scalability);
* a **reducer** receives one key together with the full
  ``reduce_value_list`` of that key and produces output records.

Reducers that must hold their entire value list in memory (for example the
VCL kernel reducer or the unsharded branch of Sharding2) declare
``materializes_input = True`` so that the runner can enforce the per-machine
memory budget, reproducing the thrashing failures discussed in the paper.

The same kind of declaration says what a job's records weigh.  A job whose
records' sizes follow from their shape works them out when it is built
(:func:`~repro.mapreduce.types.walk_record_bytes` over one prototype record
per emit site) and hands them over where the records are made: its batch
mapper declares the number for its emissions and checks, in
:meth:`Mapper.check_input`, that the input has the shape the number
assumes; its combiner declares
:attr:`Combiner.keeps_value_shape`; its reducer declares
:attr:`Reducer.output_record_bytes`.  A job that declares nothing has every
record sized by the generic sizer as it is emitted.

A mapper is written record by record (:meth:`Mapper.map`) or batch at a
time: :meth:`Mapper.map_batch` maps the task's whole input and returns the
emissions as :class:`~repro.mapreduce.types.Emissions` columns, which the
shuffle moves as they are.  The map task calls only ``map_batch``; the base
class's is the per-record loop over :meth:`Mapper.map`, which appends each
emitted pair or triple to the columns (:func:`emissions_of`).  A reducer is the
same: the reduce task calls only :meth:`Reducer.reduce_batch`, which draws
every group of the task; the base class's is the per-group loop over
:meth:`Reducer.reduce`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import sub
from typing import (
    Any,
    Callable,
    Hashable,
    Iterable,
    Iterator,
    MutableSequence,
    Sequence,
)

from repro.core.exceptions import JobConfigurationError
from repro.mapreduce.partitioner import Partitioner, hash_partitioner
from repro.mapreduce.types import Emissions, estimate_record_bytes
from repro.telemetry import Metrics


class TaskContext:
    """Per-task execution context handed to mappers, combiners and reducers.

    Provides access to the job's counters (the job's
    :class:`~repro.telemetry.Metrics` map, which every phase of the job
    counts into) and to the side data loaded at the start of the task (the
    paper's "loading external data ... only at the beginning of each
    stage").
    """

    def __init__(self, counters: Metrics, side_data: Any = None,
                 num_machines: int = 1, job_name: str = "") -> None:
        self.counters = counters
        self.side_data = side_data
        self.num_machines = num_machines
        self.job_name = job_name

    def increment(self, name: str, amount: int = 1) -> None:
        """Increment a named job counter."""
        self.counters[name] += amount


class Mapper:
    """Base mapper: override :meth:`map`.

    :meth:`map` must be pure and deterministic (a MapReduce requirement for
    fault tolerance) and yields ``(key, value)`` or
    ``(key, value, secondary_key)`` tuples.

    The whole input of a job is mapped as one task, so :meth:`setup` and
    :meth:`cleanup` run once per job and a mapper that accumulates state
    across records (counting in ``map``, emitting the count from
    ``cleanup``) sees every record on every backend.  A batch mapper
    overrides :meth:`map_batch` instead of :meth:`map`.
    """

    def setup(self, context: TaskContext) -> None:
        """Called once per job before any record is mapped."""

    def check_input(self, records: Sequence[Any], context: TaskContext) -> None:
        """Called once per job with its (non-empty) input, before it is mapped.

        A mapper whose emissions carry sizes worked out from the records'
        shape raises :class:`~repro.core.exceptions.JobConfigurationError`
        here when the input's first record does not have the shape those
        sizes assume; it reads that record from the columns when the input
        is a :class:`~repro.mapreduce.types.RecordColumns`.
        """

    def map(self, record: Any, context: TaskContext) -> Iterator[Any]:
        """Transform one input record into zero or more key/value pairs."""
        raise NotImplementedError

    def map_batch(self, records: Sequence[Any],
                  context: TaskContext) -> Emissions:
        """Map the task's whole input; return the emissions as columns.

        The map task calls only this.  A batch mapper overrides it and
        returns :class:`~repro.mapreduce.types.Emissions` columns with one
        declared size (or a size column) and each input record's emission
        count.  This base implementation is the per-record loop: it calls
        :meth:`map` on each record in input order and lays what it emits
        out as columns (:func:`emissions_of`).
        """
        emitted: list = []
        ends: list[int] = []
        extend = emitted.extend
        end = ends.append
        map_one = self.map
        for record in records:
            extend(map_one(record, context) or ())
            end(len(emitted))
        return emissions_of(emitted, list(map(sub, ends, [0, *ends[:-1]])))

    def cleanup(self, context: TaskContext) -> Iterator[Any]:
        """Called once per job after the last record; may emit pairs."""
        return iter(())


class Combiner:
    """Base dedicated combiner: override :meth:`combine`.

    The combiner is invoked on the mapper machine once per
    ``(key, secondary key)`` group of that mapper's output and yields
    replacement *values* (``None`` means none, as for a mapper); the key and
    secondary key are reattached by the runner, so a combiner can never
    redirect records to a different key (exactly the constraint real
    MapReduce imposes).
    """

    #: Set to True when every value :meth:`combine` yields has the shape of
    #: the group's values (a sum of partial results, a value passed through):
    #: the combined record then weighs what the first record of its group
    #: was built with, and the runner hands that size on instead of sizing it.
    keeps_value_shape: bool = False

    def combine(self, key: Hashable, values: Sequence[Any],
                context: TaskContext) -> Iterator[Any]:
        """Pre-aggregate the values of one key on the mapper machine."""
        raise NotImplementedError


class Reducer:
    """Base reducer: override :meth:`reduce`.

    ``values`` is the ``reduce_value_list`` of the key, sorted by secondary
    key when the engine profile supports secondary keys and the job asked
    for them.  Output records are arbitrary Python objects; they become the
    records of the job's output dataset.  As for :class:`Mapper`,
    :meth:`setup` and :meth:`cleanup` run once per job.  A batch reducer
    overrides :meth:`reduce_batch` instead of :meth:`reduce`.
    """

    #: Set to True when the reducer must hold the whole reduce value list in
    #: memory at once (enables the runner's memory-budget check).
    materializes_input: bool = False

    #: What an output record weighs, when its shape says so: an ``int`` when
    #: every record :meth:`reduce` and :meth:`cleanup` emit has one shape, a
    #: function from output records (the task's output container, or the
    #: cleanup's list) to their sizes, record by record, when a shape holds
    #: a list (``base + n x item``).  ``None``: the runner sizes each output
    #: record by the generic sizer.
    output_record_bytes: int | Callable[[Sequence[Any]], list[int]] | None = None

    def new_output(self) -> MutableSequence:
        """The container the reduce task collects the output records in.

        A list; a reducer whose :meth:`reduce` returns its records as a
        :class:`~repro.mapreduce.types.RecordColumns` block returns a
        container of that kind, whose ``extend`` appends the block's columns
        without building its records.
        """
        return []

    def setup(self, context: TaskContext) -> None:
        """Called once per job before any group is reduced."""

    def reduce(self, key: Hashable, values: Sequence[Any],
               context: TaskContext) -> Iterator[Any]:
        """Reduce one key group into zero or more output records."""
        raise NotImplementedError

    def reduce_batch(self, groups: Iterable[tuple[Hashable, list]],
                     context: TaskContext) -> tuple[MutableSequence, list[int]]:
        """Reduce every group of the task; return the output and its counts.

        The reduce task calls only this.  ``groups`` is the task's lazy
        stream of ``(key, values)`` pairs, to be drawn once and to the end;
        the result is the output container (:meth:`new_output`) and the
        number of output records each group produced, in group order.  A
        batch reducer overrides it.  This base implementation is the
        per-group loop: it calls :meth:`reduce` on each group in order, and a
        ``None`` from it means no output records, as for a mapper.
        """
        output = self.new_output()
        ends: list[int] = []
        extend = output.extend
        end = ends.append
        reduce_one = self.reduce
        for key, values in groups:
            extend(reduce_one(key, values, context) or ())
            end(len(output))
        return output, list(map(sub, ends, [0, *ends[:-1]]))

    def cleanup(self, context: TaskContext) -> Iterator[Any]:
        """Called once per job after the last group; may emit records."""
        return iter(())


class SummingCombiner(Combiner):
    """A combiner that sums numeric values (or tuples, element-wise)."""

    def combine(self, key: Hashable, values: Sequence[Any],
                context: TaskContext) -> Iterator[Any]:
        iterator = iter(values)
        try:
            accumulator = next(iterator)
        except StopIteration:
            return
        for value in iterator:
            if isinstance(accumulator, tuple):
                accumulator = tuple(a + b for a, b in zip(accumulator, value, strict=True))
            else:
                accumulator = accumulator + value
        yield accumulator


@dataclass
class JobSpec:
    """A single MapReduce job: mapper, optional combiner, optional reducer.

    Parameters
    ----------
    name:
        Job name, used in statistics and error messages.
    mapper / combiner / reducer:
        The user functions.  A ``None`` reducer makes the job map-only; its
        output dataset then holds the mapper's emissions as ``(key, value,
        secondary)`` tuples, each with the size it was emitted with.
    partitioner:
        Assignment of reduce keys to reducers (default: stable hash).
    side_data:
        Arbitrary object loaded by every task at setup time (for example the
        lookup table of the Lookup algorithm).  Its estimated size counts
        against every machine's memory budget and its load time is a fixed,
        machine-count-independent component of the simulated run time.
    requires_secondary_keys:
        Declare that the job relies on the within-group sort order.  Running
        such a job on a Hadoop-profile cluster raises
        :class:`~repro.core.exceptions.UnsupportedFeatureError`.
    num_reducers:
        Number of reduce partitions; defaults to the cluster's machine count.
    """

    name: str
    mapper: Mapper
    reducer: Reducer | None = None
    combiner: Combiner | None = None
    partitioner: Partitioner = field(default=hash_partitioner)
    side_data: Any = None
    side_data_bytes: int | None = None
    requires_secondary_keys: bool = False
    num_reducers: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise JobConfigurationError("a job must have a non-empty name")
        if not isinstance(self.mapper, Mapper):
            raise JobConfigurationError(
                f"job {self.name!r}: mapper must be a Mapper instance, "
                f"got {type(self.mapper).__name__}")
        if self.reducer is not None and not isinstance(self.reducer, Reducer):
            raise JobConfigurationError(
                f"job {self.name!r}: reducer must be a Reducer instance or None")
        if self.combiner is not None and not isinstance(self.combiner, Combiner):
            raise JobConfigurationError(
                f"job {self.name!r}: combiner must be a Combiner instance or None")
        if self.num_reducers is not None and self.num_reducers <= 0:
            raise JobConfigurationError(
                f"job {self.name!r}: num_reducers must be positive")


def _as_record(emitted: Any) -> tuple:
    """A mapper's emission as the record ``(key, value, secondary)``."""
    if isinstance(emitted, tuple):
        if len(emitted) == 3:
            return tuple(emitted)
        if len(emitted) == 2:
            return (emitted[0], emitted[1], None)
    raise JobConfigurationError(
        "mappers must emit (key, value) pairs or (key, value, secondary) "
        f"triples; got {type(emitted).__name__}")


def emissions_of(emitted: Iterable[Any], counts: list[int]) -> Emissions:
    """A per-record mapper's emissions — ``(key, value)`` pairs and ``(key,
    value, secondary)`` triples — as :class:`Emissions` columns.

    Each emission is sized once, here, as the record ``(key, value,
    secondary)`` by the generic sizer; anything else raises
    :class:`~repro.core.exceptions.JobConfigurationError`.  ``counts`` is
    what each input record emitted (empty for a mapper's cleanup).
    """
    records = list(map(_as_record, emitted))
    keys, values, secondaries = (
        map(list, zip(*records)) if records else ([], [], []))
    return Emissions(keys, values, secondaries,
                     list(map(estimate_record_bytes, records)), counts)
