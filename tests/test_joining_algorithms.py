"""Tests for the three joining-phase algorithms.

The jobs run on the input as the driver hands it to them: tuples whose
multiset identifiers and elements are the dense integers of an
:class:`~repro.core.interning.InterningContext` built from the test's own
input tuples.
"""

from __future__ import annotations

import pytest

from repro.core.exceptions import (
    JobConfigurationError,
    MemoryBudgetExceeded,
    UnsupportedFeatureError,
)
from repro.core.interning import InterningContext
from repro.core.multiset import Multiset
from repro.core.records import (
    InputColumns,
    InputTuple,
    JoinedTuple,
    PostingEntry,
    explode_multisets,
)
from repro.mapreduce.cluster import Cluster, GOOGLE_MAPREDUCE
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.job import TaskContext
from repro.mapreduce.runner import LocalJobRunner
from repro.similarity.registry import get_measure
from repro.telemetry import Metrics
from repro.vsmart.lookup import (
    LookupJoinMapper,
    build_lookup1_job,
    lookup_table_from_records,
)
from repro.vsmart.online_aggregation import build_online_aggregation_job
from repro.vsmart.preprocessing import build_stop_word_job, remove_small_multisets
from repro.vsmart.sharding import (
    build_sharding1_job,
    build_sharding2_job,
    element_fingerprint,
)

MEASURE = get_measure("ruzicka")


def interned_input(multisets):
    """The interning pass and the dataset of dense-integer input tuples."""
    records = explode_multisets(multisets)
    interning = InterningContext.from_input_tuples(records)
    return interning, Dataset.from_records(interning.intern_records(records))


def dense_id(interning, multiset):
    """The dense integer the interning pass gave ``multiset``'s identifier."""
    return interning.multiset_ids.index(multiset.id)


def expected_joined(multisets, interning):
    """The joined tuples the joining phase must produce, as a set."""
    expected = set()
    for multiset in multisets:
        uni = MEASURE.unilateral(multiset)
        for element, multiplicity in multiset.items():
            expected.add((dense_id(interning, multiset), uni,
                          interning.elements.id_of(element),
                          float(multiplicity)))
    return expected


def as_set(joined_records):
    return {(r.multiset_id, r.uni, r.element, float(r.multiplicity))
            for r in joined_records if isinstance(r, JoinedTuple)}


class TestOnlineAggregation:
    def test_produces_correct_joined_tuples(self, small_multisets, test_cluster):
        runner = LocalJobRunner(test_cluster)
        interning, raw = interned_input(small_multisets)
        result = runner.run(build_online_aggregation_job(MEASURE), raw)
        assert as_set(result.output.records) == expected_joined(small_multisets, interning)

    def test_requires_secondary_keys(self, small_multisets, hadoop_cluster):
        runner = LocalJobRunner(hadoop_cluster)
        _, raw = interned_input(small_multisets)
        with pytest.raises(UnsupportedFeatureError):
            runner.run(build_online_aggregation_job(MEASURE), raw)

    def test_combiner_does_not_change_output(self, small_multisets, test_cluster):
        runner = LocalJobRunner(test_cluster)
        _, raw = interned_input(small_multisets)
        with_combiner = runner.run(
            build_online_aggregation_job(MEASURE, use_combiners=True), raw)
        without_combiner = runner.run(
            build_online_aggregation_job(MEASURE, use_combiners=False), raw)
        assert as_set(with_combiner.output.records) == as_set(without_combiner.output.records)
        assert (with_combiner.stats.shuffle_bytes
                <= without_combiner.stats.shuffle_bytes)

    def test_counts_multisets(self, small_multisets, test_cluster):
        runner = LocalJobRunner(test_cluster)
        _, raw = interned_input(small_multisets)
        result = runner.run(build_online_aggregation_job(MEASURE), raw)
        assert (result.stats.counters["online_aggregation/multisets"]
                == len(small_multisets))


class TestLookup:
    def test_lookup1_builds_correct_table(self, small_multisets, test_cluster):
        runner = LocalJobRunner(test_cluster)
        interning, raw = interned_input(small_multisets)
        result = runner.run(build_lookup1_job(MEASURE), raw)
        table = lookup_table_from_records(result.output.records)
        assert len(table) == len(small_multisets)
        for multiset in small_multisets:
            assert table[dense_id(interning, multiset)] == MEASURE.unilateral(multiset)

    def test_set_measure_table(self, small_multisets, test_cluster):
        measure = get_measure("jaccard")
        runner = LocalJobRunner(test_cluster)
        interning, raw = interned_input(small_multisets)
        result = runner.run(build_lookup1_job(measure), raw)
        table = lookup_table_from_records(result.output.records)
        for multiset in small_multisets:
            assert table[dense_id(interning, multiset)] == (float(multiset.underlying_cardinality),)


class TestSharding:
    def test_sharding1_emits_only_large_multisets(self, test_cluster):
        multisets = [
            Multiset("big", {f"e{i}": 1 for i in range(20)}),
            Multiset("small", {"e1": 5, "e2": 5}),
        ]
        runner = LocalJobRunner(test_cluster)
        interning, raw = interned_input(multisets)
        result = runner.run(build_sharding1_job(MEASURE, cardinality_threshold=10), raw)
        table = lookup_table_from_records(result.output.records)
        big = dense_id(interning, multisets[0])
        assert set(table) == {big}
        assert table[big] == (20.0,)
        assert result.stats.counters["sharding1/sharded_multisets"] == 1

    def test_sharding2_joins_both_kinds(self, small_multisets, test_cluster):
        runner = LocalJobRunner(test_cluster)
        interning, raw = interned_input(small_multisets)
        sharding1 = runner.run(build_sharding1_job(MEASURE, 10), raw)
        table = lookup_table_from_records(sharding1.output.records)
        sharding2 = runner.run(build_sharding2_job(MEASURE, table), raw)
        assert as_set(sharding2.output.records) == expected_joined(small_multisets, interning)
        counters = sharding2.stats.counters
        assert counters.get("sharding2/sharded_tuples", 0) > 0
        assert counters.get("sharding2/unsharded_tuples", 0) > 0

    def test_extreme_thresholds_still_correct(self, small_multisets, test_cluster):
        runner = LocalJobRunner(test_cluster)
        interning, raw = interned_input(small_multisets)
        for threshold in (1, 10_000):
            sharding1 = runner.run(build_sharding1_job(MEASURE, threshold), raw)
            table = lookup_table_from_records(sharding1.output.records)
            sharding2 = runner.run(build_sharding2_job(MEASURE, table), raw)
            assert as_set(sharding2.output.records) == expected_joined(small_multisets, interning)

    def test_invalid_parameter(self):
        with pytest.raises(ValueError):
            build_sharding1_job(MEASURE, cardinality_threshold=0)

    def test_fingerprint_deterministic_and_bounded(self):
        from repro.vsmart.sharding import FINGERPRINT_SPACE

        assert element_fingerprint("cookie") == element_fingerprint("cookie")
        assert 0 <= element_fingerprint("cookie") < FINGERPRINT_SPACE

    def test_huge_unsharded_multiset_exhausts_memory(self):
        # With C far above the largest multiset, an unsharded multiset's whole
        # element list lands on one reducer and must fit in memory — the
        # thrashing risk the paper warns about when C is set too high.
        cluster = Cluster(num_machines=2, memory_per_machine=1_500,
                          disk_per_machine=10 ** 9, profile=GOOGLE_MAPREDUCE)
        big = Multiset("huge", {f"element{i:04d}": 1 for i in range(200)})
        runner = LocalJobRunner(cluster)
        _, raw = interned_input([big])
        sharding2 = build_sharding2_job(MEASURE, {})
        with pytest.raises(MemoryBudgetExceeded):
            runner.run(sharding2, raw)


class TestBatchMappers:
    """Each joining mapper maps its whole input as columns: a row of no
    positive multiplicity emits nothing, and neither does a Lookup2 row whose
    multiset has no table entry (counted)."""

    def test_rows_without_a_positive_multiplicity_count_zero(self):
        columns = InputColumns([0, 0, 1], [0, 1, 1], [2, 0, 3])
        for job in (build_online_aggregation_job(MEASURE),
                    build_lookup1_job(MEASURE),
                    build_sharding1_job(MEASURE, cardinality_threshold=1),
                    build_sharding2_job(MEASURE, {}),
                    build_sharding2_job(MEASURE, {1: (3.0,)}),
                    build_stop_word_job(frequency_threshold=3)):
            context = TaskContext(Metrics(), job.side_data)
            job.mapper.setup(context)
            emissions = job.mapper.map_batch(columns, context)
            per_row = 2 if job.name == "online_aggregation" else 1
            assert emissions.counts == [per_row, 0, per_row], job.name
            assert len(emissions.keys) == len(emissions.values) == 2 * per_row, job.name

    def test_missing_lookup_entries_are_counted(self):
        columns = InputColumns([0, 1, 1, 2], [0, 0, 1, 1], [1, 1, 2, 0])
        mapper = LookupJoinMapper(MEASURE)
        context = TaskContext(Metrics(), {0: (1.0,)})
        mapper.setup(context)
        emissions = mapper.map_batch(columns, context)
        assert emissions.counts == [1, 0, 0, 0]
        assert context.counters["lookup2/missing_table_entries"] == 2
        keys, values, _secondaries = emissions.columns()
        assert (keys, values) == ([0], [PostingEntry(0, (1.0,), 1)])


class TestRawInputIsRefused:
    """The jobs' records are sized by shape, which holds for interned input
    only: on raw tuples the first map task says so, naming job and value,
    instead of accounting a silently different byte count."""

    @pytest.mark.parametrize("build_job", [
        lambda: build_online_aggregation_job(MEASURE),
        lambda: build_lookup1_job(MEASURE),
        lambda: build_sharding1_job(MEASURE, cardinality_threshold=10),
        lambda: build_sharding2_job(MEASURE, {}),
        lambda: build_stop_word_job(frequency_threshold=3),
    ], ids=["online_aggregation", "lookup", "sharding", "sharding2",
            "stop_word_filter"])
    def test_un_interned_tuples_are_a_loud_error(self, build_job,
                                                 small_multisets, test_cluster):
        job = build_job()
        raw = Dataset.from_records(explode_multisets(small_multisets))
        with pytest.raises(JobConfigurationError) as caught:
            LocalJobRunner(test_cluster).run(job, raw)
        assert repr(job.name) in str(caught.value)
        assert repr(small_multisets[0].id) in str(caught.value)

    def test_a_bool_is_no_interned_id(self, test_cluster):
        raw = Dataset.from_records([InputTuple(True, 0, 1)])
        with pytest.raises(JobConfigurationError, match="True"):
            LocalJobRunner(test_cluster).run(build_lookup1_job(MEASURE), raw)


class TestStopWordPreprocessing:
    def test_drops_frequent_elements(self, test_cluster):
        multisets = [Multiset(f"m{i}", {"common": 1, f"own{i}": 2}) for i in range(5)]
        runner = LocalJobRunner(test_cluster)
        interning, raw = interned_input(multisets)
        result = runner.run(build_stop_word_job(frequency_threshold=3), raw)
        kept_elements = {record.element for record in result.output.records}
        assert interning.elements.id_of("common") not in kept_elements
        assert len(kept_elements) == 5
        assert result.stats.counters["preprocess/stop_words_dropped"] == 1

    def test_keeps_everything_when_threshold_high(self, small_multisets, test_cluster):
        runner = LocalJobRunner(test_cluster)
        _, raw = interned_input(small_multisets)
        result = runner.run(build_stop_word_job(frequency_threshold=10_000), raw)
        assert len(result.output) == len(raw)

    def test_invalid_threshold(self):
        with pytest.raises(JobConfigurationError):
            build_stop_word_job(0)

    def test_remove_small_multisets_helper(self):
        multisets = [Multiset("big", {f"e{i}": 1 for i in range(60)}),
                     Multiset("tiny", {"e0": 1})]
        records = explode_multisets(multisets)
        kept = remove_small_multisets(records, minimum_elements=50)
        assert {record.multiset_id for record in kept} == {"big"}
