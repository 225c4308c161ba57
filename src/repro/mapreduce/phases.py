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
  the per-record loop.  The combine task groups the columns per mapper
  machine.
* **Sized by shape when the job is built; the walker is the definition and
  the fallback.**  A map task reads its input sizes from the dataset (the
  sizes the previous job's reducer gave its output, handed over by the
  driver, or computed once when its first job read it).  What a task emits
  weighs what its job declared: a batch's one declared size, a mapper's
  ``KeyValue`` carrying the number its emit site was built with, a combiner
  that keeps the value's shape keeping its group's first size, a reducer's
  ``output_record_bytes`` as the sizes of its output records.  Only what a
  job leaves undeclared is sized here, by the generic sizer, as it is
  emitted.  Everything downstream — a group's ``bytes_in``, the
  memory-budget check on a materialised value list, the external shuffle's
  buffer, the next job's input — reads the size the record carries.
* **One construction site, where records enter the shuffle**:
  :func:`~repro.mapreduce.types.sized_key_value` is the only place a
  ``KeyValue`` is built — by a per-record mapper, by the combine task, or
  by the map task for a batch that goes to the shuffle uncombined.
* **Partitioned per key at task end.**  Map and combine tasks collect their
  output flat — a mapper's cleanup emissions last — and
  :func:`partition_by_key` asks the partitioner once per distinct key when
  the task ends, building the shuffle's *spill dictionary* (``partition ->
  key -> records``) in first-occurrence key order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, repeat
from operator import add, attrgetter, mul, sub
from typing import Any, Hashable, Iterable, Iterator, Sequence

from repro.core.exceptions import JobConfigurationError, MemoryBudgetExceeded
from repro.mapreduce.job import JobSpec, TaskContext, normalise_emit
from repro.mapreduce.partitioner import Partitioner
from repro.mapreduce.types import (
    Emissions,
    KeyValue,
    PhaseStats,
    estimate_record_bytes,
    sized_key_value,
)
from repro.telemetry import Metrics

#: The shuffle's spill structure: reduce partition -> key -> records.
Spill = dict[int, dict[Any, list[KeyValue]]]

#: The size a record was given when it was emitted: the tasks read this
#: and never walk a ``KeyValue`` again.
_carried_bytes = attrgetter("size_bytes")

#: What a map task's emissions weigh: the one size their emit site declared,
#: or a size per emission (those a per-record mapper's records carry).
_emission_sizes = attrgetter("sizes")

#: What a reducer declared about its output records' sizes: read once per task.
_declared_output_bytes = attrgetter("output_record_bytes")


def _estimated_sizes(records: Sequence[Any]) -> list[int]:
    """The generic sizer over one reduce call's output, record by record."""
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


def partition_by_key(key_values: Iterable[KeyValue], partitioner: Partitioner,
                     num_reducers: int) -> Spill:
    """Group a task's output by key, then ask the partitioner once per key.

    Within a partition the keys keep their first-occurrence order and
    within a group the records their emission order: exactly the spill that
    partitioning record by record built.
    """
    groups: dict[Any, list[KeyValue]] = {}
    for key_value in key_values:
        records = groups.get(key_value.key)
        if records is None:
            groups[key_value.key] = [key_value]
        else:
            records.append(key_value)
    spill: Spill = {}
    for key, records in groups.items():
        partition = partitioner(key, num_reducers)
        partition_groups = spill.get(partition)
        if partition_groups is None:
            spill[partition] = {key: records}
        else:
            partition_groups[key] = records
    return spill


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

    A job with a combiner gets its ``emissions`` back as columns, for the
    combine task; any other job's emissions enter the shuffle here, as
    ``KeyValue`` records: pre-partitioned into ``spill`` with
    ``build_spill``, else the flat ``key_values`` list.  Either way the
    mapper's cleanup emissions come last.
    """

    emissions: Emissions | None
    key_values: list[KeyValue]
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
    if type(sizes) is int:
        bytes_out = list(map(mul, counts, repeat(sizes)))
    else:
        # Record r's emissions are sizes[ends[r - 1]:ends[r]].
        ends = list(accumulate(counts))
        running = [0, *accumulate(sizes)]
        bytes_out = list(map(sub, map(running.__getitem__, ends),
                             map(running.__getitem__, [0, *ends[:-1]])))
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
    if len(emissions.counts) != len(task.records):
        raise JobConfigurationError(
            f"job {job.name!r}: the mapper's batch counts emissions of "
            f"{len(emissions.counts)} input records, but the task has "
            f"{len(task.records)}")
    # The sizes are settled once, here: every later read is this one.
    emissions.sizes = sizes = _emission_sizes(emissions)
    phase = PhaseStats()
    account_map_records(phase, task.record_bytes, emissions.counts, sizes,
                        task.overhead, task.num_machines)
    if type(sizes) is int:
        max_output_record = sizes if phase.records_out else 0
    else:
        max_output_record = max(sizes, default=0)
    cleanup_emissions = [normalise_emit(emitted)
                         for emitted in job.mapper.cleanup(context) or ()]
    if cleanup_emissions:
        cleanup_bytes = sum(map(_carried_bytes, cleanup_emissions))
        max_output_record = max(max_output_record,
                                max(map(_carried_bytes, cleanup_emissions)))
        phase.records_out += len(cleanup_emissions)
        phase.bytes_out += cleanup_bytes
        phase.add_machine_work(0, cleanup_bytes + task.overhead * len(cleanup_emissions))
        emissions = Emissions.of_key_values(
            emissions.key_values() + cleanup_emissions, emissions.counts)
    if job.combiner is not None:
        return MapTaskResult(emissions=emissions, key_values=[], spill=None,
                             phase=phase, max_output_record=max_output_record)
    key_values = emissions.key_values()
    spill: Spill | None = None
    if task.build_spill:
        spill = partition_by_key(key_values, job.partitioner, task.num_reducers)
        key_values = []
    return MapTaskResult(emissions=None, key_values=key_values, spill=spill,
                         phase=phase, max_output_record=max_output_record)


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

    As for map tasks, ``combined`` (flat, in machine order) and ``spill``
    are mutually exclusive.  ``phase.machine_work`` holds the combine work
    of each mapper machine.
    """

    combined: list[KeyValue]
    spill: Spill | None
    phase: PhaseStats


def execute_combine_task(task: CombineTask) -> CombineTaskResult:
    """Run the dedicated combiner over every mapper machine's output.

    Each machine's emissions are grouped by ``(key, secondary)`` straight
    from the columns, groups in first-occurrence order and values in
    emission order; the combiner's values enter the shuffle as ``KeyValue``
    records, built here.
    """
    job = task.job
    combiner = job.combiner
    assert combiner is not None
    context = TaskContext(task.counters, job.side_data, task.num_machines,
                          job.name)
    phase = PhaseStats()
    combined: list[KeyValue] = []
    keeps_shape = combiner.keeps_value_shape
    keys, values, secondaries = task.emissions.columns()
    sizes = task.emissions.sizes
    machines = task.num_machines
    for machine in range(min(machines, len(keys))):
        group_keys = keys[machine::machines]
        if secondaries is not None:
            group_keys = list(zip(group_keys, secondaries[machine::machines]))
        groups: defaultdict[Any, list] = defaultdict(list)
        for group_key, value in zip(group_keys, values[machine::machines]):
            groups[group_key].append(value)
        records_in = len(group_keys)
        if type(sizes) is int:
            bytes_in = records_in * sizes
            kept_sizes = None
        else:
            machine_sizes = sizes[machine::machines]
            bytes_in = sum(machine_sizes)
            # Reversed, a group's first record is the last one written.
            kept_sizes = dict(zip(reversed(group_keys), reversed(machine_sizes)))
        bytes_out = 0
        for group_key, group_values in groups.items():
            key, secondary = ((group_key, None) if secondaries is None
                              else group_key)
            # A value of the group's shape, under the group's key: the
            # combined record weighs what the group's first record does.
            kept = None
            if keeps_shape:
                kept = sizes if kept_sizes is None else kept_sizes[group_key]
            for value in combiner.combine(key, group_values, context):
                new_kv = sized_key_value(key, value, secondary, kept)
                combined.append(new_kv)
                bytes_out += _carried_bytes(new_kv)
        phase.records_in += records_in
        phase.bytes_in += bytes_in
        phase.bytes_out += bytes_out
        phase.add_machine_work(machine,
                               bytes_in + bytes_out + task.overhead * records_in)
    phase.records_out = len(combined)
    spill: Spill | None = None
    if task.build_spill:
        spill = partition_by_key(combined, job.partitioner, task.num_reducers)
        combined = []
    return CombineTaskResult(combined=combined, spill=spill, phase=phase)


# -- reduce tasks -------------------------------------------------------------


#: One reduce group as the shuffle hands it over: ``(partition, key,
#: records)``, partitions ascending, keys in first-occurrence order.
Group = tuple[int, Hashable, list[KeyValue]]


def iter_spill_groups(spill: Spill) -> Iterator[Group]:
    """The in-memory shuffle as a group stream, partitions ascending."""
    for partition, groups in sorted(spill.items()):
        for key, key_values in groups.items():
            yield partition, key, key_values


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


def _secondary_order(key_value: KeyValue) -> tuple[bool, Any]:
    """Sort key of the within-group order: secondary keys first, ascending."""
    return (key_value.secondary is None, key_value.secondary)


def execute_reduce_task(task: ReduceTask) -> ReduceTaskResult:
    """Run the reducer over a stream of groups: the one reduce loop.

    Every backend's reduce phase ends here, so this is the only place that
    drives a reducer's ``setup`` / ``reduce`` / ``cleanup`` and accounts
    group maxima, the materialised-value-list memory check, per-machine
    work and counters.
    """
    job = task.job
    reducer = job.reducer
    assert reducer is not None
    context = TaskContext(task.counters, job.side_data, task.num_machines,
                          job.name)
    reducer.setup(context)
    # What the job declared: one size for every output record, a function
    # of one reduce call's output, or nothing (the generic sizer, record by
    # record).
    declared = _declared_output_bytes(reducer)
    constant = declared if isinstance(declared, int) else None
    sizes_of = declared if callable(declared) else _estimated_sizes
    phase = PhaseStats()
    output_records = reducer.new_output()
    output_bytes: list[int] = []
    reduce_groups = 0
    max_group_records = 0
    max_group_bytes = 0
    peak_task_memory = 0
    for partition, key, key_values in task.groups:
        if task.sort_by_secondary:
            key_values.sort(key=_secondary_order)
        values = [kv.value for kv in key_values]
        bytes_in = sum(map(_carried_bytes, key_values))
        reduce_groups += 1
        if len(values) > max_group_records:
            max_group_records = len(values)
        if bytes_in > max_group_bytes:
            max_group_bytes = bytes_in
        if reducer.materializes_input:
            # Side data is loaded by the mappers of the jobs in this
            # library, so the reducer budget covers only the
            # materialised value list.
            if bytes_in > peak_task_memory:
                peak_task_memory = bytes_in
            check_memory_budget(job.name, f"reduce value list of key {key!r}",
                                bytes_in, task.memory_budget)
        if constant is not None:
            emitted_before = len(output_records)
            output_records.extend(reducer.reduce(key, values, context))
            records_out = len(output_records) - emitted_before
            bytes_out = records_out * constant
        else:
            records = reducer.reduce(key, values, context)
            if not isinstance(records, Sequence):
                records = list(records)
            sizes = sizes_of(records)
            output_records.extend(records)
            output_bytes.extend(sizes)
            bytes_out = sum(sizes)
            records_out = len(sizes)
        work = bytes_in + bytes_out + task.overhead * len(values)
        phase.records_in += len(values)
        phase.records_out += records_out
        phase.bytes_in += bytes_in
        phase.bytes_out += bytes_out
        phase.add_machine_work(partition % task.num_machines, work)
    if constant is not None:
        output_bytes = [constant] * len(output_records)
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
    return ReduceTaskResult(output_records=output_records,
                            output_bytes=output_bytes, phase=phase,
                            reduce_groups=reduce_groups,
                            max_group_records=max_group_records,
                            max_group_bytes=max_group_bytes,
                            peak_task_memory=peak_task_memory)

