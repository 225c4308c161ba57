"""The batch seam of the task loops: a mapper may map its task's whole input
as columns (``Mapper.map_batch``), and the map task accounts the batch it
returns column-wise, with no Python loop per record.

Held here: that arithmetic gives exactly the per-record loop's numbers —
same values, same types, same machine order — for every overhead; a batch
mapper and its per-record twin give the same job on every backend, with and
without a combiner; the combine task groups columns in first-occurrence
``(key, secondary)`` order.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import JobConfigurationError
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.job import Combiner, JobSpec, Mapper, Reducer, SummingCombiner
from repro.mapreduce.phases import account_map_records
from repro.mapreduce.runner import LocalJobRunner
from repro.mapreduce.types import Emissions, PhaseStats, estimate_record_bytes
from tests.conftest import BACKEND_IDS, BACKENDS, strip_telemetry

DOCUMENTS = ["a b a", "", "b c", "a c c d", "d", "b b b a", "c"]


# -- the accounting is the loop's ---------------------------------------------


def per_record_loop(record_bytes, sizes_per_record, overhead, machines) -> PhaseStats:
    """The map task's accounting as it was written record by record."""
    phase = PhaseStats()
    machine_work = phase.machine_work
    for index, (bytes_in, sizes) in enumerate(zip(record_bytes, sizes_per_record)):
        bytes_out = 0
        emitted_count = 0
        for size in sizes:
            bytes_out += size
            emitted_count += 1
        work = bytes_in + bytes_out + overhead * (1 + emitted_count)
        phase.records_out += emitted_count
        phase.bytes_out += bytes_out
        machine = index % machines
        machine_work[machine] = machine_work.get(machine, 0.0) + work
        phase.work_units += work
        if work > phase.max_unit_work:
            phase.max_unit_work = work
    phase.records_in = len(record_bytes)
    phase.bytes_in = sum(record_bytes)
    return phase


def typed(phase: PhaseStats) -> list:
    """Every field with its type, machines in insertion order."""
    return [(name, value, type(value).__name__) if name != "machine_work"
            else (name, [(machine, work, type(work).__name__)
                         for machine, work in value.items()])
            for name, value in dataclasses.asdict(phase).items()]


@st.composite
def map_batches(draw):
    """A task's input sizes and emissions, declared by shape or per emission."""
    big = draw(st.booleans())
    byte_counts = st.integers(0, 2**52 if big else 10_000)
    record_bytes = draw(st.lists(byte_counts, max_size=40))
    counts = draw(st.lists(st.integers(0, 4), min_size=len(record_bytes),
                           max_size=len(record_bytes)))
    if draw(st.booleans()):
        sizes = draw(st.integers(0, 500))
        per_record = [[sizes] * count for count in counts]
    else:
        per_record = [draw(st.lists(st.integers(0, 500), min_size=count,
                                    max_size=count)) for count in counts]
        sizes = [size for record in per_record for size in record]
    return record_bytes, counts, sizes, per_record


class TestAccountingIsTheLoops:
    @settings(max_examples=300, deadline=None)
    @given(batch=map_batches(),
           overhead=st.sampled_from([0, 64, 0.0, 64.0, 2.0**40, 0.5, 63.7,
                                     1 / 3, 1e-9, 12_345.678, float("inf")]),
           machines=st.integers(1, 9))
    def test_every_total_is_the_per_record_loops(self, batch, overhead, machines):
        """Integral overheads (the default is 64.0) and any other: the
        stats are the loop's to the last bit and type, byte counts up to
        ``2**52`` included."""
        record_bytes, counts, sizes, per_record = batch
        phase = PhaseStats()
        account_map_records(phase, record_bytes, counts, sizes, overhead, machines)
        expected = per_record_loop(record_bytes, per_record, overhead, machines)
        assert typed(phase) == typed(expected)


# -- a batch mapper is its per-record twin ------------------------------------


class LettersMapper(Mapper):
    """Per record: each word, under the secondary key of its position."""

    def map(self, record, context):
        for position, word in enumerate(record.split()):
            context.increment("words_seen")
            yield word, 1, position


class LettersBatchMapper(Mapper):
    """The same emissions as columns, sized per emission or by shape."""

    def __init__(self, declared: bool) -> None:
        self.declared = declared

    def map_batch(self, records, context):
        keys, values, secondaries, counts = [], [], [], []
        for record in records:
            words = record.split()
            for position, word in enumerate(words):
                context.increment("words_seen")
                keys.append(word)
                values.append(1)
                secondaries.append(position)
            counts.append(len(words))
        # One-letter words: every emission weighs what ("a", 1, 0) does.
        sizes = (estimate_record_bytes(("a", 1, 0)) if self.declared
                 else [estimate_record_bytes((key, 1, secondary))
                       for key, secondary in zip(keys, secondaries)])
        return Emissions(keys, values, secondaries, sizes, counts)


class ShapeKeepingSum(SummingCombiner):
    keeps_value_shape = True


class ListingReducer(Reducer):
    def reduce(self, key, values, context):
        yield key, tuple(values)


def run_letters(mapper: Mapper, combiner: Combiner | None, backend):
    runner = LocalJobRunner(Cluster(num_machines=3), backend=backend)
    job = JobSpec("letters", mapper, ListingReducer(), combiner)
    result = runner.run(job, Dataset.from_records(DOCUMENTS))
    stats = dataclasses.asdict(result.stats)
    stats["counters"] = strip_telemetry(stats["counters"])
    return list(result.output.records), stats


class TestBatchMapperIsItsPerRecordTwin:
    @pytest.mark.parametrize("backend", BACKENDS, ids=BACKEND_IDS)
    @pytest.mark.parametrize("combiner", [None, SummingCombiner(), ShapeKeepingSum()],
                             ids=["none", "summing", "shape_keeping"])
    @pytest.mark.parametrize("declared", [True, False], ids=["declared", "column"])
    def test_same_output_and_stats(self, backend, combiner, declared):
        assert (run_letters(LettersBatchMapper(declared), combiner, backend)
                == run_letters(LettersMapper(), combiner, backend))

    def test_combine_groups_in_first_occurrence_order(self):
        """Machine 0 of 1 sees every emission: groups come out in the order
        their (key, secondary) first appeared, values in emission order."""
        runner = LocalJobRunner(Cluster(num_machines=1))

        class Collect(Combiner):
            def combine(self, key, values, context):
                yield tuple(values)

        job = JobSpec("letters", LettersMapper(), None, Collect())
        result = runner.run(job, Dataset.from_records(["b a b", "b a"]))
        assert [(kv.key, kv.secondary, kv.value) for kv in result.output.records] == [
            ("b", 0, (1, 1)), ("a", 1, (1, 1)), ("b", 2, (1,))]

    def test_a_shape_keeping_combiner_keeps_its_groups_first_size(self):
        """The combined record weighs what the first record of its group
        was emitted with, whatever the later ones weigh."""
        runner = LocalJobRunner(Cluster(num_machines=1))

        class Pieces(Mapper):
            def map(self, record, context):
                for piece in record.split():
                    yield "k", piece

        class KeepFirst(Combiner):
            keeps_value_shape = True

            def combine(self, key, values, context):
                yield values[0]

        job = JobSpec("pieces", Pieces(), None, KeepFirst())
        result = runner.run(job, Dataset.from_records(["aaaa b", "cc"]))
        [combined] = result.output.records
        assert combined.size_bytes == estimate_record_bytes(("k", "aaaa", None))
        assert result.stats.combine.bytes_out == combined.size_bytes

    def test_a_batch_must_count_every_input_record(self):
        class Short(Mapper):
            def map_batch(self, records, context):
                return Emissions([], [], None, 8, [])

        runner = LocalJobRunner(Cluster(num_machines=2))
        with pytest.raises(JobConfigurationError, match="2 input records|has 2"):
            runner.run(JobSpec("short", Short(), ListingReducer()),
                       Dataset.from_records(["a", "b"]))
