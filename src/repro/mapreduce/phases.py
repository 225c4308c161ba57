"""Self-contained phase tasks: the one map, combine and reduce loop.

The runner builds one *task* per phase: the whole input for the map phase,
every mapper machine's output for the combine phase and the stream of
reduce groups (the in-memory shuffle's partitions, or an external
shuffle's merge) for the reduce phase.  Each task carries everything it
needs (the job, its data and the accounting parameters), is executed by a
module-level function — the backend's ``run_tasks`` is handed that
function, so a backend can tell the phases apart — and returns both its
emissions and an exact :class:`~repro.mapreduce.types.PhaseStats`; its
user code counts into the job's counter map, which the task carries.

The task loops do per record only what is per record — four rules:

* **Batches in, columns out.**  The map task makes one call, the mapper's
  :meth:`~repro.mapreduce.job.Mapper.map_batch` over its whole input, and
  gets the emissions back as :class:`~repro.mapreduce.types.Emissions`
  columns with each input record's emission count; its accounting is count
  x shape arithmetic on those columns (:func:`account_map_records`).  A
  per-record mapper runs through the base class's ``map_batch``, which is
  the per-record loop; its emissions, and any mapper's cleanup emissions,
  are laid out as columns as they are emitted
  (:func:`~repro.mapreduce.job.emissions_of`).  The combine task groups the
  columns per mapper machine and returns its output as columns too.
* **Sized by shape when the job is built; the walker is the definition and
  the fallback.**  A map task reads its input sizes from the dataset (the
  sizes the previous job's reducer gave its output, handed over by the
  driver, or computed once when its first job read it).  What a task emits
  weighs what its job declared: a batch's one declared size or size
  column, a combiner that keeps the value's shape keeping its group's first
  size, a reducer's ``output_record_bytes`` as the sizes of its output
  records.  Only what a job leaves undeclared is sized, by the generic
  sizer, as it is emitted.  Everything downstream — a group's
  ``bytes_in``, the memory-budget check on a materialised value list, the
  external shuffle's buffer, the next job's input — reads that size from
  the size column.
* **Columns through the shuffle.**  Map and combine tasks collect their
  output flat — a mapper's cleanup emissions last — and
  :func:`partition_columns` groups the columns by key and asks the
  partitioner once per distinct key when the task ends, building the
  shuffle's *spill* (one ``key -> group`` map per partition) in
  first-occurrence key order; the external shuffle is fed the same columns
  and spills them as group blocks.  No object is built per record between
  map and reduce.
* **One group form, one reduce loop.**  A reduce group is ``(partition,
  key, values, sizes, secondaries)``, from the spill or the
  external shuffle's merge alike.  The reduce task sorts, sizes and checks
  each group as the reducer's
  :meth:`~repro.mapreduce.job.Reducer.reduce_batch` draws it, and accounts
  the groups column-wise afterwards.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, repeat
from operator import add, attrgetter, index, itemgetter, mod, mul, sub
from typing import Any, Hashable, Iterable, Iterator, Sequence

from repro.core.exceptions import JobConfigurationError, MemoryBudgetExceeded
from repro.mapreduce.job import JobSpec, TaskContext, emissions_of
from repro.mapreduce.partitioner import Partitioner
from repro.mapreduce.types import Emissions, PhaseStats, estimate_record_bytes
from repro.telemetry import Metrics

#: One reduce group's records, held column-wise: ``(values, sizes,
#: secondaries)`` — the values in emission order, the one size every record
#: was declared with or a size per record, and a secondary key per record or
#: ``None`` when the records have none.
GroupColumns = tuple[list, int | list[int], list | None]

#: The shuffle's spill structure: one ``key -> group`` map per reduce
#: partition, indexed by partition.
Spill = list[dict[Any, GroupColumns]]

#: What a map task's emissions weigh: the one size their emit site declared,
#: or a size per emission (those a per-record mapper's emissions were given).
_emission_sizes = attrgetter("sizes")

#: Whether a combiner declared that it keeps its values' shape: read once
#: per task.
_keeps_value_shape = attrgetter("keeps_value_shape")

#: What a reducer declared about its output records' sizes: read once per task.
_declared_output_bytes = attrgetter("output_record_bytes")

_first = itemgetter(0)
_second = itemgetter(1)


def _estimated_sizes(records: Iterable[Any]) -> list[int]:
    """The generic sizer over a reduce task's output, record by record."""
    return list(map(estimate_record_bytes, records))


def check_memory_budget(job_name: str, what: str, required: int,
                        budget: int | None) -> None:
    """Raise :class:`MemoryBudgetExceeded` when ``required`` exceeds ``budget``.

    ``budget`` is ``None`` when budget enforcement is disabled.
    """
    if budget is None or required <= budget:
        return
    raise MemoryBudgetExceeded(
        f"job {job_name!r}: {what} needs {required} bytes but each "
        f"machine only has {budget} bytes of memory",
        required_bytes=required, budget_bytes=budget)


def checked_partition(job_name: str, key: Hashable, partition: Any,
                      num_reducers: int) -> int:
    """``partition`` as an ``int`` in ``[0, num_reducers)``, or a
    :class:`JobConfigurationError` naming the job, the key and the partition.

    A partitioner's answer is checked once per distinct key: an integer of
    another type (a NumPy integer) is taken as the ``int`` it stands for;
    anything else, or an integer out of range, fails the job.
    """
    try:
        number = index(partition)
    except TypeError:
        number = None
    if number is None or not 0 <= number < num_reducers:
        raise JobConfigurationError(
            f"job {job_name!r}: the partitioner put key {key!r} in partition "
            f"{partition!r}, but a partition must be an int in "
            f"[0, {num_reducers})")
    return number


class KeyPartitions(dict):
    """``key -> partition``, asking the partitioner once per distinct key.

    The external shuffle's feed reads its records' partitions here
    (``partitions[key]``): each key's answer is checked
    (:func:`checked_partition`) the first time it is asked for and kept, as
    :func:`partition_columns` checks it once per group.
    """

    __slots__ = ("job_name", "partitioner", "num_reducers")

    def __init__(self, job_name: str, partitioner: Partitioner,
                 num_reducers: int) -> None:
        super().__init__()
        self.job_name = job_name
        self.partitioner = partitioner
        self.num_reducers = num_reducers

    def __missing__(self, key: Hashable) -> int:
        partition = self.partitioner(key, self.num_reducers)
        if type(partition) is not int or not 0 <= partition < self.num_reducers:
            partition = checked_partition(self.job_name, key, partition,
                                          self.num_reducers)
        self[key] = partition
        return partition


def partition_columns(keys: Sequence, values: Sequence,
                      secondaries: Sequence | None, sizes: int | Sequence[int],
                      partitioner: Partitioner, num_reducers: int,
                      job_name: str = "") -> Spill:
    """Group a task's output columns by key, then ask the partitioner once
    per key.

    Within a partition the keys keep their first-occurrence order and
    within a group the records their emission order: exactly the spill
    that partitioning record by record built.  A group is ``(values, sizes,
    secondaries)``: the one declared size stays one ``int``, and a group
    has secondary keys only when the columns do.  A partition that is not
    an ``int`` in ``[0, num_reducers)`` fails the job
    (:func:`checked_partition`).
    """
    grouped: defaultdict[Any, list] = defaultdict(list)
    gather = secondaries is not None or type(sizes) is not int
    if gather:
        # Group row numbers; each group's three columns are gathered below.
        for row, key in enumerate(keys):
            grouped[key].append(row)
        value_at = values.__getitem__
        size_at = None if type(sizes) is int else sizes.__getitem__
        secondary_at = None if secondaries is None else secondaries.__getitem__
    else:
        for key, value in zip(keys, values):
            grouped[key].append(value)
    spill: Spill = [{} for _ in range(num_reducers)]
    for key, members in grouped.items():
        partition = partitioner(key, num_reducers)
        if type(partition) is not int or not 0 <= partition < num_reducers:
            partition = checked_partition(job_name, key, partition, num_reducers)
        if gather:
            spill[partition][key] = (
                list(map(value_at, members)),
                sizes if size_at is None else list(map(size_at, members)),
                None if secondary_at is None else list(map(secondary_at, members)))
        else:
            spill[partition][key] = (members, sizes, None)
    return spill


def _spill_of(emissions: Emissions, job: JobSpec, num_reducers: int) -> Spill:
    """A task's output columns, partitioned for the in-memory shuffle."""
    keys, values, secondaries = emissions.columns()
    return partition_columns(keys, values, secondaries, emissions.sizes,
                             job.partitioner, num_reducers, job.name)


def _slice_sums(counts: Sequence[int], sizes: int | Sequence[int]) -> list[int]:
    """Per run of ``counts`` consecutive rows, the sum of their ``sizes``.

    Run ``r`` is the rows ``ends[r - 1]:ends[r]``; with one declared size,
    ``counts[r] x size``.
    """
    if type(sizes) is int:
        return list(map(mul, counts, repeat(sizes)))
    ends = list(accumulate(counts))
    running = [0, *accumulate(sizes)]
    return list(map(sub, map(running.__getitem__, ends),
                    map(running.__getitem__, [0, *ends[:-1]])))


# -- map tasks ----------------------------------------------------------------


@dataclass
class MapTask:
    """The input records of one job, mapped as a single task."""

    job: JobSpec
    records: Sequence[Any]
    #: The size of each of ``records``, as the dataset carries it.
    record_bytes: Sequence[int]
    num_machines: int
    overhead: int
    num_reducers: int
    #: Whether to pre-partition the map output for the shuffle (map-side
    #: spill); disabled when a combiner will rewrite the output anyway.
    build_spill: bool
    #: The job's counters, which the mapper's context counts into.
    counters: Metrics


@dataclass
class MapTaskResult:
    """Emissions and exact accounting for one executed :class:`MapTask`.

    With ``build_spill`` the emissions enter the in-memory shuffle here,
    pre-partitioned into ``spill``; otherwise they are handed on as the
    ``emissions`` columns — to the combine task, to the external shuffle or
    as a map-only job's output.  Either way the mapper's cleanup emissions
    come last.
    """

    emissions: Emissions | None
    spill: Spill | None
    phase: PhaseStats
    max_output_record: int


def account_map_records(phase: PhaseStats, record_bytes: Sequence[int],
                        counts: Sequence[int], sizes: int | Sequence[int],
                        overhead: float, num_machines: int) -> None:
    """The map phase's per-record accounting, from the batch's columns.

    Input record ``r`` runs on machine ``r % num_machines`` and does
    ``bytes_in + bytes_out + overhead x (1 + emissions)`` units of work,
    where ``bytes_out`` is ``emissions x size`` for a declared size, or the
    sum of its emissions' sizes.  Each work is the per-record loop's
    expression, worked out column-wise, and each total is folded from
    ``0.0`` in input order: the loop's own IEEE sequence.
    """
    bytes_out = _slice_sums(counts, sizes)
    phase.records_in = records = len(counts)
    phase.bytes_in = sum(record_bytes)
    phase.bytes_out = sum(bytes_out)
    phase.records_out = sum(counts)
    works = list(map(add, map(add, record_bytes, bytes_out),
                     map(mul, repeat(overhead), map(add, repeat(1), counts))))
    for machine in range(min(num_machines, records)):
        phase.machine_work[machine] = reduce(
            add, works[machine::num_machines], 0.0)
    phase.work_units = reduce(add, works, 0.0)
    top = max(works, default=0.0)
    if top > phase.max_unit_work:
        phase.max_unit_work = top


def _check_batch(job_name: str, emissions: Emissions, records: int) -> None:
    """Raise :class:`JobConfigurationError` naming the job unless a mapper's
    batch counts the emissions of ``records`` input records and has one
    key, value, secondary key (or ``None``) and size (or one declared
    ``int``) per counted emission."""
    keys, values, secondaries = emissions.columns()
    counts, sizes = emissions.counts, emissions.sizes
    if len(counts) != records:
        raise JobConfigurationError(
            f"job {job_name!r}: the mapper's batch counts emissions of "
            f"{len(counts)} input records, but the task has {records}")
    emitted = sum(counts)
    if (len(keys) != emitted or len(values) != emitted
            or (secondaries is not None and len(secondaries) != emitted)
            or (type(sizes) is not int and len(sizes) != emitted)):
        raise JobConfigurationError(
            f"job {job_name!r}: the mapper's batch counts {emitted} emissions "
            f"but has {len(keys)} keys, {len(values)} values, "
            f"{'no' if secondaries is None else len(secondaries)} secondary "
            f"keys and {'one' if type(sizes) is int else len(sizes)} sizes")


def execute_map_task(task: MapTask) -> MapTaskResult:
    """Run the mapper over the job's input: the one map loop.

    The mapper maps the whole input in one call
    (:meth:`~repro.mapreduce.job.Mapper.map_batch`: a batch mapper's own,
    or the base class's per-record loop) and the task accounts the batch it
    returns.
    """
    job = task.job
    context = TaskContext(task.counters, job.side_data, task.num_machines,
                          job.name)
    job.mapper.setup(context)
    if task.records:
        job.mapper.check_input(task.records, context)
    emissions = job.mapper.map_batch(task.records, context)
    _check_batch(job.name, emissions, len(task.records))
    # The sizes are settled once, here: every later read is this one.
    emissions.sizes = sizes = _emission_sizes(emissions)
    phase = PhaseStats()
    account_map_records(phase, task.record_bytes, emissions.counts, sizes,
                        task.overhead, task.num_machines)
    if type(sizes) is int:
        max_output_record = sizes if phase.records_out else 0
    else:
        max_output_record = max(sizes, default=0)
    cleanup = emissions_of(job.mapper.cleanup(context) or (), [])
    if cleanup.keys:
        cleanup_bytes = sum(cleanup.sizes)
        max_output_record = max(max_output_record, max(cleanup.sizes))
        phase.records_out += len(cleanup.keys)
        phase.bytes_out += cleanup_bytes
        phase.add_machine_work(0, cleanup_bytes + task.overhead * len(cleanup.keys))
        emissions = emissions.followed_by(cleanup)
    if task.build_spill:
        return MapTaskResult(emissions=None,
                             spill=_spill_of(emissions, job, task.num_reducers),
                             phase=phase, max_output_record=max_output_record)
    return MapTaskResult(emissions=emissions, spill=None, phase=phase,
                         max_output_record=max_output_record)


# -- combine tasks ------------------------------------------------------------


@dataclass
class CombineTask:
    """Every mapper machine's output, combined as one task.

    Emission ``i`` of ``emissions`` belongs to mapper machine
    ``i % num_machines``.
    """

    job: JobSpec
    emissions: Emissions
    num_machines: int
    overhead: int
    num_reducers: int
    build_spill: bool
    counters: Metrics


@dataclass
class CombineTaskResult:
    """Output and exact accounting for one :class:`CombineTask`.

    As for map tasks, ``combined`` (columns, flat in machine order) and
    ``spill`` are mutually exclusive.  ``phase.machine_work`` holds the
    combine work of each mapper machine.
    """

    combined: Emissions | None
    spill: Spill | None
    phase: PhaseStats


def execute_combine_task(task: CombineTask) -> CombineTaskResult:
    """Run the dedicated combiner over every mapper machine's output.

    Each machine's emissions are grouped by ``(key, secondary)`` straight
    from the columns, groups in first-occurrence order and values in
    emission order.  The combiner is called once per group, and its values
    are laid out as columns per machine: each group's key (and secondary)
    repeated once per value it produced, and each value's size — the
    group's first size for a combiner that keeps its values' shape, else
    the generic sizer's.  ``combined.counts`` is the number of values each
    group produced.
    """
    job = task.job
    combiner = job.combiner
    assert combiner is not None
    context = TaskContext(task.counters, job.side_data, task.num_machines,
                          job.name)
    phase = PhaseStats()
    keeps_shape = _keeps_value_shape(combiner)
    keys, values, secondaries = task.emissions.columns()
    sizes = task.emissions.sizes
    machines = task.num_machines
    out_keys: list = []
    out_values: list = []
    out_secondaries: list | None = None if secondaries is None else []
    # A combiner that keeps the shape of one declared size keeps that size.
    out_sizes: int | list[int] = (sizes if keeps_shape and type(sizes) is int
                                  else [])
    group_counts: list[int] = []
    for machine in range(min(machines, len(keys))):
        group_keys = keys[machine::machines]
        if secondaries is not None:
            group_keys = list(zip(group_keys, secondaries[machine::machines]))
        groups: defaultdict[Any, list] = defaultdict(list)
        for group_key, value in zip(group_keys, values[machine::machines]):
            groups[group_key].append(value)
        records_in = len(group_keys)
        produced = list(map(combiner.combine,
                            groups if secondaries is None else map(_first, groups),
                            groups.values(), repeat(context)))
        produced = [output if type(output) is tuple or type(output) is list
                    else () if output is None else list(output)
                    for output in produced]
        counts = list(map(len, produced))
        first = len(out_values)
        out_values.extend(chain.from_iterable(produced))
        if secondaries is None:
            out_keys.extend(chain.from_iterable(map(repeat, groups, counts)))
        else:
            out_keys.extend(chain.from_iterable(
                map(repeat, map(_first, groups), counts)))
            out_secondaries.extend(chain.from_iterable(
                map(repeat, map(_second, groups), counts)))
        group_counts.extend(counts)
        if type(sizes) is int:
            bytes_in = records_in * sizes
        else:
            machine_sizes = sizes[machine::machines]
            bytes_in = sum(machine_sizes)
        if type(out_sizes) is int:
            bytes_out = (len(out_values) - first) * out_sizes
        else:
            if keeps_shape:
                # A value of the group's shape, under the group's key: the
                # combined record weighs what the group's first record does.
                # Reversed, a group's first record is the last one written.
                kept = dict(zip(reversed(group_keys), reversed(machine_sizes)))
                machine_out = list(chain.from_iterable(
                    map(repeat, map(kept.__getitem__, groups), counts)))
            else:
                machine_out = _estimated_sizes(zip(
                    out_keys[first:], out_values[first:],
                    repeat(None) if out_secondaries is None
                    else out_secondaries[first:]))
            out_sizes.extend(machine_out)
            bytes_out = sum(machine_out)
        phase.records_in += records_in
        phase.bytes_in += bytes_in
        phase.bytes_out += bytes_out
        phase.add_machine_work(machine,
                               bytes_in + bytes_out + task.overhead * records_in)
    phase.records_out = len(out_values)
    combined = Emissions(out_keys, out_values, out_secondaries, out_sizes,
                         group_counts)
    if task.build_spill:
        return CombineTaskResult(
            combined=None, spill=_spill_of(combined, job, task.num_reducers),
            phase=phase)
    return CombineTaskResult(combined=combined, spill=None, phase=phase)


# -- reduce tasks -------------------------------------------------------------


#: One reduce group as the shuffle hands it over: ``(partition, key, values,
#: sizes, secondaries)``, partitions ascending, keys in first-occurrence
#: order, values in emission order; ``sizes`` is one declared ``int`` or a
#: size per value, ``secondaries`` ``None`` or a secondary key per value.
Group = tuple[int, Hashable, list, int | list[int], list | None]


def iter_spill_groups(spill: Spill) -> Iterator[Group]:
    """The in-memory shuffle as a group stream, partitions ascending."""
    for partition, groups in enumerate(spill):
        for key, (values, sizes, secondaries) in groups.items():
            yield partition, key, values, sizes, secondaries


@dataclass
class ReduceTask:
    """A stream of reduce groups executed as one task.

    ``groups`` is consumed lazily, one group at a time:
    :func:`iter_spill_groups` over the in-memory shuffle, or the
    :meth:`~repro.mapreduce.shuffle.ExternalGrouper.iter_groups` merge of
    an external one — which must never be materialised, or the external
    shuffle loses its memory ceiling.
    """

    job: JobSpec
    groups: Iterable[Group]
    #: Whether each reduce value list is sorted by the secondary key first.
    sort_by_secondary: bool
    num_machines: int
    overhead: int
    #: Per-machine memory budget, or ``None`` when enforcement is disabled.
    memory_budget: int | None
    counters: Metrics


@dataclass
class ReduceTaskResult:
    """Output records and exact accounting for one :class:`ReduceTask`."""

    #: The reducer's output container (:meth:`Reducer.new_output
    #: <repro.mapreduce.job.Reducer.new_output>`).
    output_records: Sequence[Any]
    #: The size each output record was emitted with, for the next job.
    output_bytes: list[int]
    phase: PhaseStats
    reduce_groups: int
    max_group_records: int
    max_group_bytes: int
    peak_task_memory: int


def _secondary_order(secondary: Any) -> tuple[bool, Any]:
    """Sort key of the within-group order: secondary keys first, ascending."""
    return (secondary is None, secondary)


def _prepared_groups(task: ReduceTask, notes: list[tuple[int, int, int]]
                     ) -> Iterator[tuple[Hashable, list]]:
    """The group stream a reducer draws: ``(key, values)``.

    Before a group is handed over it is sorted by secondary key (a stable
    sort of its row order, when the job asks for it), its ``bytes_in`` is
    worked out from its sizes and ``(partition, records, bytes_in)`` is
    noted for the task's accounting; a reducer that materialises its value
    list has it checked against the memory budget first.
    """
    job_name = task.job.name
    sort = task.sort_by_secondary
    budget = task.memory_budget if task.job.reducer.materializes_input else None
    note = notes.append
    for partition, key, values, sizes, secondaries in task.groups:
        if sort and secondaries is not None:
            # Without a missing secondary key, ordering the keys is enough.
            order = sorted(range(len(values)), key=(
                secondaries.__getitem__ if None not in secondaries
                else list(map(_secondary_order, secondaries)).__getitem__))
            values = list(map(values.__getitem__, order))
            if type(sizes) is not int:
                sizes = list(map(sizes.__getitem__, order))
        count = len(values)
        bytes_in = count * sizes if type(sizes) is int else sum(sizes)
        note((partition, count, bytes_in))
        if budget is not None and bytes_in > budget:
            # Side data is loaded by the mappers of the jobs in this
            # library, so the reducer budget covers only the materialised
            # value list.
            check_memory_budget(job_name, f"reduce value list of key {key!r}",
                                bytes_in, budget)
        yield key, values


def execute_reduce_task(task: ReduceTask) -> ReduceTaskResult:
    """Run the reducer over a stream of groups: the one reduce loop.

    Every backend's reduce phase ends here, so this is the only place that
    drives a reducer's ``setup`` / ``reduce_batch`` / ``cleanup`` and
    accounts group maxima, the materialised-value-list memory check,
    per-machine work and counters.  The reducer draws every group in one
    call (:meth:`~repro.mapreduce.job.Reducer.reduce_batch`: a batch
    reducer's own, or the base class's per-group loop) and says how many
    output records each group produced; the task accounts the groups from
    those columns.  Group ``g`` on partition ``p`` runs on machine ``p %
    num_machines`` and does ``bytes_in + bytes_out + overhead x records``
    units of work; each total is folded from ``0.0`` in group order, the
    per-group loop's own IEEE sequence.
    """
    job = task.job
    reducer = job.reducer
    assert reducer is not None
    context = TaskContext(task.counters, job.side_data, task.num_machines,
                          job.name)
    reducer.setup(context)
    # What the job declared: one size for every output record, a function
    # of output records, or nothing (the generic sizer, record by record).
    declared = _declared_output_bytes(reducer)
    constant = declared if isinstance(declared, int) else None
    sizes_of = declared if callable(declared) else _estimated_sizes
    notes: list[tuple[int, int, int]] = []
    output_records, counts = reducer.reduce_batch(
        _prepared_groups(task, notes), context)
    if len(counts) != len(notes) or sum(counts) != len(output_records):
        raise JobConfigurationError(
            f"job {job.name!r}: the reducer's batch counts {sum(counts)} "
            f"output records of {len(counts)} groups, but it was handed "
            f"{len(notes)} groups and returned {len(output_records)} records")
    partitions, record_counts, group_bytes = (
        map(list, zip(*notes)) if notes else ([], [], []))
    if constant is not None:
        output_bytes = [constant] * len(output_records)
        bytes_out = _slice_sums(counts, constant)
    else:
        output_bytes = list(sizes_of(output_records))
        bytes_out = _slice_sums(counts, output_bytes)
    phase = PhaseStats()
    phase.records_in = sum(record_counts)
    phase.records_out = len(output_bytes)
    phase.bytes_in = sum(group_bytes)
    phase.bytes_out = sum(bytes_out)
    works = list(map(add, map(add, group_bytes, bytes_out),
                     map(mul, repeat(task.overhead), record_counts)))
    by_machine: dict[int, list] = {}
    for machine, work in zip(map(mod, partitions, repeat(task.num_machines)),
                             works):
        machine_works = by_machine.get(machine)
        if machine_works is None:
            by_machine[machine] = [work]
        else:
            machine_works.append(work)
    for machine, machine_works in by_machine.items():
        phase.machine_work[machine] = reduce(add, machine_works, 0.0)
    phase.work_units = reduce(add, works, 0.0)
    top = max(works, default=0.0)
    if top > phase.max_unit_work:
        phase.max_unit_work = top
    cleanup_records = list(reducer.cleanup(context))
    cleanup_sizes = (sizes_of(cleanup_records) if constant is None
                     else [constant] * len(cleanup_records))
    output_records.extend(cleanup_records)
    output_bytes.extend(cleanup_sizes)
    cleanup_bytes = sum(cleanup_sizes)
    cleanup_count = len(cleanup_sizes)
    if cleanup_count:
        phase.records_out += cleanup_count
        phase.bytes_out += cleanup_bytes
        phase.add_machine_work(0, cleanup_bytes + task.overhead * cleanup_count)
    return ReduceTaskResult(
        output_records=output_records, output_bytes=output_bytes, phase=phase,
        reduce_groups=len(notes),
        max_group_records=max(record_counts, default=0),
        max_group_bytes=max(group_bytes, default=0),
        peak_task_memory=(max(group_bytes, default=0)
                          if reducer.materializes_input else 0))
