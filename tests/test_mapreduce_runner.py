"""Tests for the MapReduce simulator: jobs, runner, budgets, profiles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import (
    DiskBudgetExceeded,
    JobConfigurationError,
    JobTimeoutError,
    MemoryBudgetExceeded,
    UnsupportedFeatureError,
)
from repro.mapreduce.cluster import Cluster
from repro.mapreduce.costmodel import CostParameters
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.job import (
    Combiner,
    JobSpec,
    Mapper,
    Reducer,
    SummingCombiner,
    TaskContext,
    emissions_of,
)
from repro.mapreduce.phases import (
    KeyPartitions,
    iter_spill_groups,
    partition_columns,
)
from repro.mapreduce.runner import LocalJobRunner
from repro.mapreduce.shuffle import ExternalGrouper
from repro.mapreduce.types import Emissions, estimate_record_bytes
from repro.telemetry import Metrics, merge


class WordCountMapper(Mapper):
    def map(self, record, context):
        for word in record.split():
            context.increment("words_seen")
            yield (word, 1)


class WordCountReducer(Reducer):
    def reduce(self, key, values, context):
        yield (key, sum(values))


class SecondaryOrderMapper(Mapper):
    """Emit values whose correctness depends on the secondary sort order."""

    def map(self, record, context):
        key, value, secondary = record
        yield (key, value, secondary)


class CollectOrderReducer(Reducer):
    def reduce(self, key, values, context):
        yield (key, tuple(values))


class MaterialisingReducer(Reducer):
    materializes_input = True

    def reduce(self, key, values, context):
        yield (key, len(list(values)))


def run_wordcount(cluster, combiner=None, documents=None):
    runner = LocalJobRunner(cluster)
    dataset = Dataset.from_records(documents or ["a b a", "b c", "a c c"])
    job = JobSpec("wordcount", WordCountMapper(), WordCountReducer(), combiner)
    return runner.run(job, dataset)


class TestBasicExecution:
    def test_wordcount_results(self, test_cluster):
        result = run_wordcount(test_cluster)
        assert sorted(result.output.records) == [("a", 3), ("b", 2), ("c", 3)]

    def test_counters_propagated(self, test_cluster):
        result = run_wordcount(test_cluster)
        assert result.stats.counters["words_seen"] == 8

    def test_stats_record_counts(self, test_cluster):
        result = run_wordcount(test_cluster)
        assert result.stats.map.records_in == 3
        assert result.stats.map.records_out == 8
        assert result.stats.reduce_groups == 3
        assert result.stats.shuffle_bytes > 0
        assert result.stats.simulated_seconds > 0

    def test_combiner_reduces_shuffle_volume(self, test_cluster):
        without = run_wordcount(test_cluster)
        with_combiner = run_wordcount(test_cluster, combiner=SummingCombiner())
        assert sorted(with_combiner.output.records) == sorted(without.output.records)
        assert with_combiner.stats.shuffle_bytes <= without.stats.shuffle_bytes
        assert with_combiner.stats.combine.records_in > 0

    def test_map_only_job(self, test_cluster):
        """A map-only job outputs its emissions as ``(key, value,
        secondary)`` tuples, each with the size it was emitted with."""
        runner = LocalJobRunner(test_cluster)
        job = JobSpec("map-only", SecondaryOrderMapper())
        records = [("k", "value", 1), ("key", 2.5, None)]
        result = runner.run(job, Dataset.from_records(records))
        assert list(result.output.records) == records
        assert all(type(record) is tuple for record in result.output)
        assert list(result.output.record_bytes) == [
            estimate_record_bytes(record) for record in records]
        assert result.stats.map.bytes_out == sum(result.output.record_bytes)

    def test_map_only_output_feeds_the_next_job(self, test_cluster):
        class PassThroughMapper(Mapper):
            def map(self, record, context):
                yield record

        runner = LocalJobRunner(test_cluster)
        words = runner.run(JobSpec("map-only", WordCountMapper()),
                           Dataset.from_records(["k k"]))
        assert list(words.output.records) == [("k", 1, None), ("k", 1, None)]
        job = JobSpec("pass-through", PassThroughMapper(), CollectOrderReducer())
        result = runner.run(job, words.output)
        assert result.output.records[0] == ("k", (1, 1))
        assert result.stats.map.bytes_in == sum(words.output.record_bytes)

    def test_deterministic_across_runs(self, test_cluster):
        first = run_wordcount(test_cluster)
        second = run_wordcount(test_cluster)
        assert first.stats.simulated_seconds == second.stats.simulated_seconds
        assert first.stats.shuffle_bytes == second.stats.shuffle_bytes
        assert sorted(first.output.records) == sorted(second.output.records)


class TestSecondaryKeys:
    def make_dataset(self):
        return Dataset.from_records([
            ("key", "late", 1), ("key", "early", 0),
            ("key", "later", 2), ("key", "early2", 0),
        ])

    def test_values_sorted_by_secondary_key(self, test_cluster):
        runner = LocalJobRunner(test_cluster)
        job = JobSpec("secondary", SecondaryOrderMapper(), CollectOrderReducer(),
                      requires_secondary_keys=True)
        result = runner.run(job, self.make_dataset())
        (_key, values), = result.output.records
        assert values[:2] in (("early", "early2"), ("early2", "early"))
        assert set(values[2:]) == {"late", "later"}

    def test_hadoop_profile_rejects_secondary_keys(self, hadoop_cluster):
        runner = LocalJobRunner(hadoop_cluster)
        job = JobSpec("secondary", SecondaryOrderMapper(), CollectOrderReducer(),
                      requires_secondary_keys=True)
        with pytest.raises(UnsupportedFeatureError):
            runner.run(job, self.make_dataset())

    def test_hadoop_profile_runs_ordinary_jobs(self, hadoop_cluster):
        result = run_wordcount(hadoop_cluster)
        assert sorted(result.output.records) == [("a", 3), ("b", 2), ("c", 3)]


class TestBudgets:
    def test_side_data_too_large(self, tight_memory_cluster):
        runner = LocalJobRunner(tight_memory_cluster)
        big_table = {f"key{i}": float(i) for i in range(1000)}
        job = JobSpec("with-side", WordCountMapper(), WordCountReducer(),
                      side_data=big_table)
        with pytest.raises(MemoryBudgetExceeded) as excinfo:
            runner.run(job, Dataset.from_records(["a b"]))
        assert excinfo.value.required_bytes > excinfo.value.budget_bytes

    def test_materialised_reduce_list_too_large(self, tight_memory_cluster):
        runner = LocalJobRunner(tight_memory_cluster)
        documents = [" ".join(["hot"] * 40) for _ in range(20)]
        job = JobSpec("materialise", WordCountMapper(), MaterialisingReducer())
        with pytest.raises(MemoryBudgetExceeded):
            runner.run(job, Dataset.from_records(documents))

    def test_streaming_reducer_tolerates_long_lists(self, tight_memory_cluster):
        runner = LocalJobRunner(tight_memory_cluster)
        documents = [" ".join(["hot"] * 10) for _ in range(20)]
        job = JobSpec("stream", WordCountMapper(), WordCountReducer())
        result = runner.run(job, Dataset.from_records(documents))
        assert list(result.output.records) == [("hot", 200)]

    def test_budgets_can_be_disabled(self, tight_memory_cluster):
        runner = LocalJobRunner(tight_memory_cluster, enforce_budgets=False)
        big_table = {f"key{i}": float(i) for i in range(1000)}
        job = JobSpec("with-side", WordCountMapper(), WordCountReducer(),
                      side_data=big_table)
        result = runner.run(job, Dataset.from_records(["a b"]))
        assert result.output.records

    def test_disk_budget(self):
        cluster = Cluster(num_machines=1, memory_per_machine=10 ** 9,
                          disk_per_machine=200)
        runner = LocalJobRunner(cluster)
        documents = ["word " * 50] * 20
        job = JobSpec("diskhog", WordCountMapper(), WordCountReducer())
        with pytest.raises(DiskBudgetExceeded):
            runner.run(job, Dataset.from_records(documents))

    def test_scheduler_timeout(self, test_cluster):
        slow = CostParameters(job_overhead_seconds=30.0, machine_throughput=1.0,
                              network_bandwidth=1.0, side_data_load_rate=1.0)
        cluster = test_cluster.with_scheduler_limit(10.0)
        runner = LocalJobRunner(cluster, cost_parameters=slow)
        job = JobSpec("slow", WordCountMapper(), WordCountReducer())
        with pytest.raises(JobTimeoutError) as excinfo:
            runner.run(job, Dataset.from_records(["a b c"]))
        assert excinfo.value.simulated_seconds > excinfo.value.limit_seconds

    def test_explicit_side_data_bytes_override(self, tight_memory_cluster):
        runner = LocalJobRunner(tight_memory_cluster)
        job = JobSpec("declared", WordCountMapper(), WordCountReducer(),
                      side_data={"tiny": 1}, side_data_bytes=10 ** 9)
        with pytest.raises(MemoryBudgetExceeded):
            runner.run(job, Dataset.from_records(["a"]))


class TestJobSpecValidation:
    def test_requires_name(self):
        with pytest.raises(JobConfigurationError):
            JobSpec("", WordCountMapper())

    def test_mapper_type_checked(self):
        with pytest.raises(JobConfigurationError):
            JobSpec("bad", mapper=object())  # type: ignore[arg-type]

    def test_reducer_type_checked(self):
        with pytest.raises(JobConfigurationError):
            JobSpec("bad", WordCountMapper(), reducer=object())  # type: ignore[arg-type]

    def test_combiner_type_checked(self):
        with pytest.raises(JobConfigurationError):
            JobSpec("bad", WordCountMapper(), WordCountReducer(),
                    combiner=object())  # type: ignore[arg-type]

    def test_num_reducers_positive(self):
        with pytest.raises(JobConfigurationError):
            JobSpec("bad", WordCountMapper(), num_reducers=0)

    def test_emissions_of_lays_pairs_and_triples_out_as_columns(self):
        emissions = emissions_of([("k", "v"), ("k", "v", 2)], [2])
        assert emissions.columns() == (["k", "k"], ["v", "v"], [None, 2])
        assert emissions.sizes == [estimate_record_bytes(("k", "v", None)),
                                   estimate_record_bytes(("k", "v", 2))]
        assert emissions.counts == [2]

    @pytest.mark.parametrize("emitted", ["just-a-string", ("k",),
                                         ("k", "v", 2, 3), ["k", "v"]])
    def test_emissions_of_rejects_garbage(self, emitted):
        with pytest.raises(JobConfigurationError, match="pairs or"):
            emissions_of([emitted], [1])


class CleanupMapper(Mapper):
    def __init__(self):
        self.seen = 0

    def map(self, record, context):
        self.seen += 1
        return iter(())

    def cleanup(self, context):
        yield ("total", self.seen)


class TestLifecycleHooks:
    def test_mapper_cleanup_emissions_are_collected(self, test_cluster):
        runner = LocalJobRunner(test_cluster)
        job = JobSpec("cleanup", CleanupMapper(), WordCountReducer())
        result = runner.run(job, Dataset.from_records(["x", "y", "z"]))
        assert list(result.output.records) == [("total", 3)]

    def test_combiner_cannot_change_keys(self, test_cluster):
        class RenamingCombiner(Combiner):
            def combine(self, key, values, context):
                yield sum(values)

        result = run_wordcount(test_cluster, combiner=RenamingCombiner())
        assert sorted(result.output.records) == [("a", 3), ("b", 2), ("c", 3)]

    def test_task_context_increment(self):
        counters = Metrics()
        context = TaskContext(counters)
        context.increment("x", 5)
        context.increment("x")
        assert counters["x"] == 6


#: A reduce key: str, int and tuple keys, few of each, so they repeat.
shuffle_keys = st.one_of(st.sampled_from(["a", "b", "c"]), st.integers(0, 4),
                         st.tuples(st.integers(0, 2), st.sampled_from("xy")))

#: One emitted row: ``(key, secondary, size)``, secondaries mixing ``None``
#: and ints.
shuffle_rows = st.tuples(shuffle_keys, st.one_of(st.none(), st.integers(0, 3)),
                         st.integers(1, 60))


def reference_spill_groups(records: list[tuple], partitioner,
                           num_reducers: int) -> list[tuple]:
    """The shuffle partitioned record by record (what ``partition_by_key``
    produced before records moved as columns), in the group form; a record
    is ``(key, value, secondary, size)``."""
    spill: dict = {}
    for record in records:
        partition = partitioner(record[0], num_reducers)
        spill.setdefault(partition, {}).setdefault(record[0], []).append(record)
    return [(partition, key, [record[1] for record in group],
             [record[3] for record in group], [record[2] for record in group])
            for partition in sorted(spill) for key, group in spill[partition].items()]


def as_rows(group: tuple) -> tuple:
    """A group with its one declared size or its missing secondaries spelt
    out per record."""
    partition, key, values, sizes, secondaries = group
    return (partition, key, values,
            [sizes] * len(values) if type(sizes) is int else list(sizes),
            [None] * len(values) if secondaries is None else list(secondaries))


class TestShuffleGrouping:
    """One group form: the in-memory spill, the external merge and the
    record-by-record reference hand the reduce task the same groups."""

    @settings(max_examples=60, deadline=None)
    @given(emitted=st.lists(shuffle_rows, max_size=40),
           cleanup=st.lists(shuffle_rows, max_size=5),
           declared=st.one_of(st.none(), st.integers(1, 60)),
           salt=st.integers(0, 50), num_reducers=st.integers(1, 5))
    def test_spill_merge_and_per_record_reference_agree(
            self, emitted, cleanup, declared, salt, num_reducers):
        def partitioner(key, partitions):
            return (len(repr(key)) * 7 + salt) % partitions

        # The value is the emission's position, so record order shows.
        keys = [key for key, _secondary, _size in emitted]
        secondaries = [secondary for _key, secondary, _size in emitted]
        with_secondaries = any(secondary is not None for secondary in secondaries)
        sizes = ([size for _key, _secondary, size in emitted]
                 if declared is None else declared)
        emissions = Emissions(keys, list(range(len(keys))),
                              secondaries if with_secondaries else None,
                              sizes, [1] * len(keys))
        if cleanup:
            # What the map task does: the cleanup emissions come last.
            emissions = emissions.followed_by(Emissions(
                [key for key, _secondary, _size in cleanup],
                list(range(len(keys), len(keys) + len(cleanup))),
                [secondary for _key, secondary, _size in cleanup],
                [size for _key, _secondary, size in cleanup], []))
        all_keys, values, all_secondaries = emissions.columns()
        records = list(zip(
            all_keys, values, all_secondaries or [None] * len(values),
            [emissions.sizes] * len(values) if type(emissions.sizes) is int
            else emissions.sizes, strict=True))
        reference = reference_spill_groups(records, partitioner, num_reducers)

        spill = partition_columns(all_keys, values, all_secondaries,
                                  emissions.sizes, partitioner, num_reducers)
        serial = list(iter_spill_groups(spill))
        assert [as_rows(group) for group in serial] == reference
        # A group's sizes stay one int while the columns declare one.
        for group in serial:
            assert type(group[3]) is type(emissions.sizes)

        with ExternalGrouper(memory_budget_bytes=1, merge_fan_in=2) as grouper:
            grouper.add_columns(
                KeyPartitions("job", partitioner, num_reducers).__getitem__,
                all_keys, values, all_secondaries, emissions.sizes)
            merged = list(grouper.iter_groups())
        # The merge concatenates a key's blocks into the spill's own group.
        assert merged == serial

    def test_partitioner_is_asked_once_per_distinct_key(self):
        asked = []

        def partitioner(key, partitions):
            asked.append(key)
            return 0

        keys = list("abacab")
        partition_columns(keys, [None] * 6, None, 10, partitioner, 3)
        assert asked == ["a", "b", "c"]
        asked.clear()
        partitions = KeyPartitions("job", partitioner, 3)
        assert [partitions[key] for key in keys] == [0] * 6
        assert asked == ["a", "b", "c"]


class SilentReducer(Reducer):
    """Counts its groups and returns ``None``: no output records."""

    def reduce(self, key, values, context):
        context.increment("groups_seen")


@pytest.mark.parametrize("backend", ["serial", "disk"])
class TestUserCodeIsChecked:
    @pytest.mark.parametrize("partitioner", [
        lambda key, partitions: -1, lambda key, partitions: partitions + 3,
        lambda key, partitions: 1.5, lambda key, partitions: "0"],
        ids=["negative", "too_large", "float", "str"])
    def test_a_partition_out_of_range_fails_the_job(self, backend, partitioner):
        """Such a job used to run, its reduce work landing on machine 3 (or
        on a machine called ``1.5``)."""
        runner = LocalJobRunner(Cluster(num_machines=4), backend=backend)
        job = JobSpec("misrouted", WordCountMapper(), WordCountReducer(),
                      partitioner=partitioner)
        with pytest.raises(JobConfigurationError,
                           match=r"job 'misrouted'.*key 'a' in partition"):
            runner.run(job, Dataset.from_records(["a b a", "b c"]))

    def test_a_numpy_style_partition_is_taken_as_its_int(self, backend):
        class Two:
            def __index__(self):
                return 2

        runner = LocalJobRunner(Cluster(num_machines=4), backend=backend)
        job = JobSpec("indexed", WordCountMapper(), WordCountReducer(),
                      partitioner=lambda key, partitions: Two())
        result = runner.run(job, Dataset.from_records(["a b a", "b c"]))
        assert sorted(result.output.records) == [("a", 2), ("b", 2), ("c", 1)]
        assert list(result.stats.reduce.machine_work) == [2]

    def test_a_reducer_returning_none_emits_nothing(self, backend):
        """It used to fail with ``'NoneType' object is not iterable``."""
        runner = LocalJobRunner(Cluster(num_machines=4), backend=backend)
        job = JobSpec("silent", WordCountMapper(), SilentReducer())
        result = runner.run(job, Dataset.from_records(["a b a", "b c"]))
        assert list(result.output.records) == []
        assert result.stats.counters["groups_seen"] == 3
        assert result.stats.reduce.records_out == 0


    @pytest.mark.parametrize("columns, counts, complaint", [
        ((["a", "b", "c"], [1, 2], None, 8), [3, 0], "counts 3 emissions"),
        ((["a", "b", "c"], [1, 2, 3], None, [8, 8]), [3, 0], "counts 3 emissions"),
        ((["a", "b", "c"], [1, 2, 3], [0, 1], 8), [3, 0], "counts 3 emissions"),
        ((["a", "b"], [1, 2], None, 8), [3, 0], "counts 3 emissions"),
        (([], [], None, 8), [], "2 input records|has 2")],
        ids=["short_values", "short_sizes", "short_secondaries", "miscounted",
             "uncounted_records"])
    def test_a_malformed_map_batch_fails_the_job(self, backend, columns,
                                                 counts, complaint):
        """Each column must have one entry per counted emission, and each
        input record a count: a short value column used to lose ``"c"``
        while ``records_out`` said 3, a short size column raised a bare
        ``IndexError``."""

        class Malformed(Mapper):
            def map_batch(self, records, context):
                return Emissions(*columns, counts)

        runner = LocalJobRunner(Cluster(num_machines=2), backend=backend)
        with pytest.raises(JobConfigurationError,
                           match=rf"job 'malformed'.*({complaint})"):
            runner.run(JobSpec("malformed", Malformed(), WordCountReducer()),
                       Dataset.from_records(["x", "y"]))

    def test_a_batch_reducer_must_count_its_output(self, backend):
        """Four records counted as two used to give ``records_out`` 4 and
        the ``bytes_out`` of two."""

        class Overflowing(Reducer):
            def reduce_batch(self, groups, context):
                groups = list(groups)
                return [(key, 1) for key, _ in groups] * 2, [1] * len(groups)

        runner = LocalJobRunner(Cluster(num_machines=2), backend=backend)
        with pytest.raises(JobConfigurationError,
                           match=r"job 'overflowing'.*counts 2 output records"):
            runner.run(JobSpec("overflowing", WordCountMapper(), Overflowing()),
                       Dataset.from_records(["a b a"]))

    def test_a_combiner_returning_none_emits_no_values(self, backend):
        """It used to fail with ``'NoneType' object is not iterable``."""

        class Dropping(Combiner):
            def combine(self, key, values, context):
                if key != "a":
                    return None
                return [sum(values)]

        runner = LocalJobRunner(Cluster(num_machines=2), backend=backend)
        job = JobSpec("dropping", WordCountMapper(), WordCountReducer(),
                      Dropping())
        result = runner.run(job, Dataset.from_records(["a b a", "b c a"]))
        assert sorted(result.output.records) == [("a", 3)]
        assert result.stats.combine.records_out == 2


class TestPipelineResult:
    """Satellite coverage: stats_for lookup and counters merging."""

    @staticmethod
    def _stats(name, counters, seconds=1.0):
        from repro.mapreduce.types import JobStats

        return JobStats(job_name=name, counters=dict(counters),
                        simulated_seconds=seconds)

    def _pipeline(self):
        from repro.mapreduce.runner import PipelineResult

        return PipelineResult(
            name="demo",
            output=Dataset.from_records([]),
            job_stats=[
                self._stats("first", {"shared": 2, "first_only": 1}, 10.0),
                self._stats("second", {"shared": 3, "second_only": 7}, 5.0),
            ])

    def test_stats_for_returns_named_job(self):
        pipeline = self._pipeline()
        assert pipeline.stats_for("first").simulated_seconds == 10.0
        assert pipeline.stats_for("second").counters["second_only"] == 7

    def test_stats_for_unknown_job_raises(self):
        with pytest.raises(KeyError, match="no job named 'third'"):
            self._pipeline().stats_for("third")

    def test_stats_for_unknown_job_lists_available_jobs(self):
        with pytest.raises(KeyError, match="available jobs: 'first', 'second'"):
            self._pipeline().stats_for("third")

    def test_stats_for_empty_pipeline_message(self):
        from repro.mapreduce.runner import PipelineResult

        pipeline = PipelineResult(name="empty", output=Dataset.from_records([]))
        with pytest.raises(KeyError, match=r"available jobs: \(none\)"):
            pipeline.stats_for("anything")

    def test_counters_sum_across_jobs(self):
        merged = self._pipeline().counters()
        assert merged == {"shared": 5, "first_only": 1, "second_only": 7}

    def test_counters_empty_pipeline(self):
        from repro.mapreduce.runner import PipelineResult

        pipeline = PipelineResult(name="empty", output=Dataset.from_records([]))
        assert pipeline.counters() == {}
        assert pipeline.simulated_seconds == 0.0

    def test_simulated_seconds_sums_jobs(self):
        assert self._pipeline().simulated_seconds == 15.0

    def test_merge_counters_accumulates(self):
        # A peak is a high-water mark over the jobs; everything else adds up.
        peak = "shuffle/peak_buffer_bytes"
        stats = [self._stats("one", {"x": 1, peak: 40}),
                 self._stats("two", {"x": 2, "y": 3, peak: 30})]
        assert merge(job.counters for job in stats) \
            == {"x": 3, "y": 3, peak: 40}
