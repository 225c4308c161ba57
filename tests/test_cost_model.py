"""Tests for the cost model, cluster descriptions and size estimation."""

from __future__ import annotations

import dataclasses
import enum
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.exceptions import JobConfigurationError
from repro.core.interning import InternedMultiset
from repro.core.multiset import Multiset
from repro.core.records import (
    InputTuple,
    JoinedTuple,
    PairContribution,
    PostingEntry,
    SimilarPair,
)
from repro.mapreduce.cluster import (
    GIGABYTE,
    GOOGLE_MAPREDUCE,
    HADOOP,
    Cluster,
    laptop_cluster,
    paper_cluster,
)
from repro.mapreduce.costmodel import CostModel, CostParameters
from repro.mapreduce.counters import Counters
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.job import JobSpec
from repro.mapreduce.partitioner import (
    hash_partitioner,
    stable_hash,
)
from repro.mapreduce.runner import LocalJobRunner
from repro.mapreduce.types import (
    JobStats,
    KeyValue,
    PhaseStats,
    estimate_record_bytes,
    sized_key_value,
    walk_record_bytes,
)
from repro.vsmart.similarity_phase import ChunkPairRecord
from tests.test_mapreduce_runner import WordCountMapper, WordCountReducer


class TestCostModel:
    def make_stats(self) -> JobStats:
        stats = JobStats(job_name="test")
        stats.map.add_machine_work(0, 1_000_000)
        stats.map.add_machine_work(1, 500_000)
        stats.reduce.add_machine_work(0, 2_000_000)
        stats.shuffle_bytes = 4_000_000
        stats.max_group_bytes = 100_000
        stats.side_data_bytes = 1_000_000
        return stats

    def test_breakdown_components_positive(self):
        model = CostModel()
        breakdown = model.job_cost(self.make_stats(), Cluster(num_machines=10))
        assert breakdown.overhead_seconds > 0
        assert breakdown.map_seconds > 0
        assert breakdown.reduce_seconds > 0
        assert breakdown.shuffle_seconds > 0
        assert breakdown.side_data_seconds > 0
        assert breakdown.total_seconds == pytest.approx(
            breakdown.overhead_seconds + breakdown.side_data_seconds
            + breakdown.map_seconds + breakdown.shuffle_seconds
            + breakdown.reduce_seconds)

    def test_more_machines_never_slower_for_shuffle(self):
        model = CostModel()
        small = model.job_cost(self.make_stats(), Cluster(num_machines=10))
        large = model.job_cost(self.make_stats(), Cluster(num_machines=100))
        assert large.shuffle_seconds <= small.shuffle_seconds

    def test_side_data_cost_independent_of_machines(self):
        model = CostModel()
        small = model.job_cost(self.make_stats(), Cluster(num_machines=10))
        large = model.job_cost(self.make_stats(), Cluster(num_machines=1000))
        assert small.side_data_seconds == pytest.approx(large.side_data_seconds)

    def test_critical_path_lower_bounded_by_max_unit(self):
        stats = JobStats(job_name="skewed")
        stats.map.add_machine_work(0, 100.0)
        stats.map.max_unit_work = 1_000_000.0
        model = CostModel()
        breakdown = model.job_cost(stats, Cluster(num_machines=1000))
        assert breakdown.map_seconds >= 1_000_000.0 / model.parameters.machine_throughput

    def test_annotate_fills_simulated_seconds(self):
        stats = self.make_stats()
        CostModel().annotate(stats, Cluster(num_machines=10))
        assert stats.simulated_seconds > 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CostParameters(machine_throughput=0)
        with pytest.raises(ValueError):
            CostParameters(job_overhead_seconds=-1)


class TestPhaseStats:
    def test_machine_work_accounting(self):
        stats = PhaseStats()
        stats.add_machine_work(0, 10.0)
        stats.add_machine_work(0, 5.0)
        stats.add_machine_work(1, 3.0)
        assert stats.max_machine_work == 15.0
        assert stats.work_units == 18.0
        assert stats.max_unit_work == 10.0
        assert stats.skew == pytest.approx(15.0 / 9.0)

    def test_empty_phase(self):
        stats = PhaseStats()
        assert stats.max_machine_work == 0.0
        assert stats.skew == 0.0


class TestCluster:
    def test_paper_cluster_defaults(self):
        cluster = paper_cluster()
        assert cluster.num_machines == 500
        assert cluster.memory_per_machine == GIGABYTE
        assert cluster.profile is GOOGLE_MAPREDUCE

    def test_with_methods_return_copies(self):
        cluster = laptop_cluster()
        bigger = cluster.with_machines(64)
        assert bigger.num_machines == 64
        assert cluster.num_machines != 64
        assert cluster.with_profile(HADOOP).profile is HADOOP
        assert cluster.with_memory(123).memory_per_machine == 123
        assert cluster.with_scheduler_limit(5.0).scheduler_limit_seconds == 5.0

    def test_totals(self):
        cluster = Cluster(num_machines=4, memory_per_machine=10, disk_per_machine=20)
        assert cluster.total_memory == 40
        assert cluster.total_disk == 80

    @pytest.mark.parametrize("kwargs", [
        {"num_machines": 0},
        {"memory_per_machine": 0},
        {"disk_per_machine": -1},
        {"scheduler_limit_seconds": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(JobConfigurationError):
            Cluster(**kwargs)

    def test_profiles(self):
        assert GOOGLE_MAPREDUCE.supports_secondary_keys
        assert not HADOOP.supports_secondary_keys


class TestSizeEstimation:
    def test_primitives(self):
        assert estimate_record_bytes(None) == 1
        assert estimate_record_bytes(True) == 1
        assert estimate_record_bytes(7) == 8
        assert estimate_record_bytes(3.14) == 8
        assert estimate_record_bytes("abcd") == 8

    def test_containers_grow_with_content(self):
        assert estimate_record_bytes([1, 2, 3]) > estimate_record_bytes([1])
        assert estimate_record_bytes({"a": 1, "b": 2}) > estimate_record_bytes({"a": 1})

    def test_dataclass_estimates(self):
        record = KeyValue("key", (1.0, 2.0))
        assert estimate_record_bytes(record) > 0

    def test_size_hint_protocol(self):
        class Hinted:
            def estimated_bytes(self):
                return 12345

        assert estimate_record_bytes(Hinted()) == 12345


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 70_000


class Point(NamedTuple):
    x: object
    y: object


class Label(str):
    """A ``str`` subclass: sized as text, but not by the exact-``str`` entry."""


class Hinted:
    def __init__(self, size: int) -> None:
        self.size = size

    def estimated_bytes(self) -> int:
        return self.size


@dataclasses.dataclass(frozen=True)
class HintedRecord:
    """A dataclass whose ``estimated_bytes`` beats its fields."""

    payload: object
    size: int

    def estimated_bytes(self) -> int:
        return self.size


class MappingLike:
    """Neither a dict nor a dataclass: sized through ``.items()``."""

    def __init__(self, pairs: list) -> None:
        self.pairs = pairs

    def items(self):
        return iter(self.pairs)


#: Every record dataclass the pipelines move (and a ``NamedTuple``), with
#: free-form fields.
RECORD_TYPES = (
    (KeyValue, 3), (JoinedTuple, 4), (PostingEntry, 3), (PairContribution, 2),
    (SimilarPair, 3), (ChunkPairRecord, 4), (Point, 2),
)


def sizeable_values():
    """Recursively generated values covering every branch of the walker."""
    hashable = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
        st.text(max_size=8), st.binary(max_size=8), st.sampled_from(Colour),
        st.text(max_size=8).map(Label))
    sizes = st.integers(min_value=0, max_value=10_000)
    leaves = st.one_of(
        hashable, sizes.map(Hinted),
        st.sets(hashable, max_size=4), st.frozensets(hashable, max_size=4),
        st.builds(InputTuple, hashable, hashable,
                  st.floats(min_value=0.5, max_value=9.0)),
        st.builds(Multiset, st.text(max_size=4),
                  st.dictionaries(st.text(max_size=4), st.integers(1, 5),
                                  max_size=4)),
        st.lists(st.integers(0, 50), max_size=4, unique=True).map(
            lambda ids: InternedMultiset("m", tuple(sorted(ids)),
                                         tuple(1.0 for _ in ids))))

    def extend(children):
        records = [st.tuples(*[children] * arity).map(lambda args, t=record_type:
                                                       t(*args))
                   for record_type, arity in RECORD_TYPES]
        return st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(hashable, children, max_size=4),
            st.builds(HintedRecord, children, sizes),
            st.lists(st.tuples(hashable, children), max_size=3).map(MappingLike),
            *records)

    return st.recursive(leaves, extend, max_leaves=12)


class TestSizerEquivalence:
    """The generic sizer's shortcuts against the reference walker."""

    @given(value=sizeable_values())
    def test_compiled_sizers_equal_the_walker(self, value):
        # Nothing is compiled per class any more: numbers, text, tuples and
        # lists have shortcuts, every other type goes to the walker.
        assert estimate_record_bytes(value) == walk_record_bytes(value)

    def test_check_order_is_the_walkers(self):
        # bool before int; an int subclass is an int; a tuple or str
        # subclass is what its base is; a size hint beats the fields.
        assert estimate_record_bytes(True) == 1
        assert estimate_record_bytes(Colour.BLUE) == 8
        assert estimate_record_bytes(Point(1, 2.0)) == 16 + 8 + 8
        assert estimate_record_bytes(Label("abc")) == 3 + 4
        assert estimate_record_bytes(HintedRecord(("x",) * 50, 7)) == 7
        assert estimate_record_bytes(Multiset("m", {"a": 1})) == (
            Multiset("m", {"a": 1}).estimated_bytes())

    def test_carried_size_is_no_part_of_the_record(self):
        plain = KeyValue("key", (1.0, 2.0), 3)
        sized = sized_key_value("key", (1.0, 2.0), 3)
        assert sized.size_bytes == estimate_record_bytes(plain) == (
            walk_record_bytes(plain))
        assert plain.size_bytes == 0
        assert sized == plain and hash(sized) == hash(plain)
        assert repr(sized) == repr(plain)
        assert estimate_record_bytes(sized) == walk_record_bytes(sized) == (
            sized.size_bytes)


class TestPartitioners:
    def test_stable_hash_is_process_independent(self):
        assert stable_hash("cookie") == stable_hash("cookie")
        assert stable_hash("cookie", salt="a") != stable_hash("cookie", salt="b")

    def test_hash_partitioner_in_range(self):
        for key in ("a", ("tuple", 1), 42):
            assert 0 <= hash_partitioner(key, 7) < 7

    def test_hash_partitioner_rejects_zero_partitions(self):
        with pytest.raises(ValueError):
            hash_partitioner("a", 0)


class TestDataset:
    def test_basic_properties(self):
        dataset = Dataset.from_records([1, 2, 3], name="numbers")
        assert dataset.name == "numbers"
        assert len(dataset) == 3
        assert dataset[1] == 2
        assert list(dataset) == [1, 2, 3]
        assert dataset.total_bytes > 0

    def test_sizes_are_computed_once_on_first_read_or_handed_over(self):
        records = [("k", 1), "text", KeyValue("key", (1.0, 2.0)), 7]
        lazy = Dataset("lazy", records)
        assert list(lazy.record_bytes) == [estimate_record_bytes(record)
                                           for record in records]
        assert lazy.record_bytes is lazy.record_bytes  # kept, not recomputed
        assert lazy.total_bytes == sum(lazy.record_bytes)
        carried = Dataset("carried", records, record_bytes=[5, 6, 7, 8])
        assert list(carried.record_bytes) == [5, 6, 7, 8]
        assert carried.total_bytes == 26

    @pytest.mark.parametrize("sizes", [[], [8], [8, 8, 8]])
    def test_record_bytes_of_another_length_are_rejected(self, sizes):
        with pytest.raises(JobConfigurationError, match="record sizes"):
            Dataset("mismatch", [1, 2], record_bytes=sizes)

    def test_map_filter_concat(self):
        dataset = Dataset.from_records([1, 2, 3])
        doubled = dataset.map_records(lambda value: value * 2)
        assert list(doubled) == [2, 4, 6]
        evens = dataset.filter_records(lambda value: value % 2 == 0)
        assert list(evens) == [2]
        combined = dataset.concat(doubled)
        assert len(combined) == 6


class TestCountersAndPipelineStats:
    def test_counters_merge(self):
        first = Counters()
        first.increment("a", 2)
        second = Counters()
        second.increment("a", 3)
        second.increment("b")
        first.merge(second)
        assert first.as_dict() == {"a": 5, "b": 1}
        assert "a" in first
        assert len(first) == 2

    def test_pipeline_result_aggregation(self, test_cluster):
        runner = LocalJobRunner(test_cluster)
        job = JobSpec("wc", WordCountMapper(), WordCountReducer())
        first = runner.run(job, Dataset.from_records(["a b"]))
        second = runner.run(job, Dataset.from_records(["c d"]))
        from repro.mapreduce.runner import PipelineResult

        pipeline = PipelineResult(name="p", output=second.output,
                                  job_stats=[first.stats, second.stats])
        assert pipeline.simulated_seconds == pytest.approx(
            first.stats.simulated_seconds + second.stats.simulated_seconds)
        assert pipeline.stats_for("wc") is first.stats
        with pytest.raises(KeyError):
            pipeline.stats_for("missing")
        assert pipeline.counters()["words_seen"] == 4
