"""Job specifications and the Mapper / Combiner / Reducer programming model.

The programming model mirrors the paper's section 2:

* a **mapper** transforms one input record into zero or more
  ``<key, value>`` pairs (optionally with a *secondary key* that controls
  the within-group sort order when the engine profile supports it);
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
per emit site) and hands them over where the records are made: its mapper
yields :func:`~repro.mapreduce.types.sized_key_value` records carrying the
number and checks, in :meth:`Mapper.check_input`, that the input has the
shape the number assumes; its combiner declares
:attr:`Combiner.keeps_value_shape`; its reducer declares
:attr:`Reducer.output_record_bytes`.  A job that declares nothing has every
record sized by the generic sizer as it is emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterator, Sequence

from repro.core.exceptions import JobConfigurationError
from repro.mapreduce.counters import Counters
from repro.mapreduce.partitioner import Partitioner, hash_partitioner
from repro.mapreduce.types import KeyValue, sized_key_value


class TaskContext:
    """Per-task execution context handed to mappers, combiners and reducers.

    Provides access to the job's counters and to the side data loaded at the
    start of the task (the paper's "loading external data ... only at the
    beginning of each stage").
    """

    def __init__(self, counters: Counters, side_data: Any = None,
                 num_machines: int = 1, job_name: str = "") -> None:
        self.counters = counters
        self.side_data = side_data
        self.num_machines = num_machines
        self.job_name = job_name

    def increment(self, name: str, amount: int = 1) -> None:
        """Increment a named job counter."""
        self.counters.increment(name, amount)


class Mapper:
    """Base mapper: override :meth:`map`.

    :meth:`map` must be pure and deterministic (a MapReduce requirement for
    fault tolerance) and yields ``(key, value)`` or
    ``(key, value, secondary_key)`` tuples, or :class:`KeyValue` records.

    :meth:`setup` and :meth:`cleanup` run once per *task*, exactly as in
    real MapReduce.  The serial backend runs the whole input as one task;
    parallel backends split it into one task per worker, so a mapper that
    accumulates state across records (emitting from ``cleanup``, counting
    in ``setup``) sees per-task slices there — only mappers whose hooks are
    stateless (every mapper in this library) produce backend-invariant
    output.
    """

    def setup(self, context: TaskContext) -> None:
        """Called once per task before any record is mapped."""

    def check_input(self, record: Any, context: TaskContext) -> None:
        """Called once per task with its first input record, before it is mapped.

        A mapper whose emissions carry sizes worked out from the records'
        shape raises :class:`~repro.core.exceptions.JobConfigurationError`
        here when the input does not have the shape those sizes assume.
        """

    def map(self, record: Any, context: TaskContext) -> Iterator[Any]:
        """Transform one input record into zero or more key/value pairs."""
        raise NotImplementedError

    def cleanup(self, context: TaskContext) -> Iterator[Any]:
        """Called once per task after the last record; may emit pairs."""
        return iter(())


class IdentityMapper(Mapper):
    """Pass ``KeyValue`` records (or ``(key, value)`` tuples) through unchanged.

    The paper's Similarity2 step "employs an identity map stage"; this class
    is that stage.
    """

    def map(self, record: Any, context: TaskContext) -> Iterator[Any]:
        yield record


class Combiner:
    """Base dedicated combiner: override :meth:`combine`.

    The combiner is invoked on the mapper machine once per
    ``(key, secondary key)`` group of that mapper's output and yields
    replacement *values*; the key and secondary key are reattached by the
    runner, so a combiner can never redirect records to a different key
    (exactly the constraint real MapReduce imposes).
    """

    #: Set to True when every value :meth:`combine` yields has the shape of
    #: the group's values (a sum of partial results, a value passed through):
    #: the combined record then weighs what each record of its group was
    #: built with, and the runner hands that size on instead of sizing it.
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
    records of the job's output dataset.

    As for :class:`Mapper`, :meth:`setup` and :meth:`cleanup` run once per
    task — one task on the serial backend, one per worker batch of reduce
    partitions on the parallel backends — so backend-invariant output
    requires hooks that carry no cross-group state.
    """

    #: Set to True when the reducer must hold the whole reduce value list in
    #: memory at once (enables the runner's memory-budget check).
    materializes_input: bool = False

    #: What an output record weighs, when its shape says so: an ``int`` when
    #: every record :meth:`reduce` and :meth:`cleanup` emit has one shape, a
    #: function of the record when a shape holds a list (``base + n x
    #: item``).  ``None``: the runner sizes each output record as it is
    #: emitted.
    output_record_bytes: int | Callable[[Any], int] | None = None

    def setup(self, context: TaskContext) -> None:
        """Called once per task before any group is reduced."""

    def reduce(self, key: Hashable, values: Sequence[Any],
               context: TaskContext) -> Iterator[Any]:
        """Reduce one key group into zero or more output records."""
        raise NotImplementedError

    def cleanup(self, context: TaskContext) -> Iterator[Any]:
        """Called once per task after the last group; may emit records."""
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
        output dataset then contains the mapper's ``KeyValue`` records.
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


def normalise_emit(emitted: Any) -> KeyValue:
    """Normalise a mapper emission into a :class:`KeyValue` that knows its size.

    Accepts ``KeyValue`` instances, ``(key, value)`` pairs and
    ``(key, value, secondary)`` triples.  A ``KeyValue`` that carries its
    size — built by a mapper that knows its records' shapes, or read back
    from a map-only job's output — is passed through as it is; anything
    else is sized here, once, at emission.
    """
    if isinstance(emitted, KeyValue):
        if emitted.size_bytes:
            return emitted
        return sized_key_value(emitted.key, emitted.value, emitted.secondary)
    if isinstance(emitted, tuple) and 2 <= len(emitted) <= 3:
        return sized_key_value(*emitted)
    raise JobConfigurationError(
        "mappers must emit KeyValue records, (key, value) pairs or "
        f"(key, value, secondary) triples; got {type(emitted).__name__}")
