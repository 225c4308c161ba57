"""Tests for the high-level V-SMART-Join driver."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import (
    JobConfigurationError,
    MeasureNotApplicableError,
    MemoryBudgetExceeded,
)
from repro.core.multiset import Multiset
from repro.engine import join
from repro.core.records import InputTuple, explode_multisets
from repro.mapreduce.cluster import Cluster, laptop_cluster
from repro.mapreduce.costmodel import CostParameters
from repro.mapreduce.dfs import Dataset
from repro.similarity.exact import all_pairs_exact, pair_dictionary
from repro.vsmart.driver import (
    JOINING_ALGORITHMS,
    VSmartJoin,
    VSmartJoinConfig,
    normalise_input,
)
from tests.conftest import make_random_multisets


class TestConfig:
    def test_defaults(self):
        config = VSmartJoinConfig()
        assert config.algorithm == "online_aggregation"
        assert config.threshold == 0.5

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(JobConfigurationError):
            VSmartJoinConfig(algorithm="magic")

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            VSmartJoinConfig(threshold=0.0)

    def test_invalid_sharding_threshold_rejected(self):
        with pytest.raises(JobConfigurationError):
            VSmartJoinConfig(sharding_threshold=0)

    def test_disjunctive_measure_rejected_at_run_time(self):
        config = VSmartJoinConfig(measure="direct_ruzicka")
        with pytest.raises(MeasureNotApplicableError):
            config.resolved_measure()


class TestNormaliseInput:
    def test_multisets(self, overlapping_multisets):
        dataset = normalise_input(overlapping_multisets)
        assert len(dataset) == sum(m.underlying_cardinality for m in overlapping_multisets)

    def test_input_tuples(self):
        records = [InputTuple("a", "x", 1)]
        assert list(normalise_input(records)) == records

    def test_dataset_passthrough(self):
        dataset = Dataset.from_records([InputTuple("a", "x", 1)])
        assert normalise_input(dataset) is dataset

    def test_empty_input(self):
        assert len(normalise_input([])) == 0

    def test_garbage_rejected(self):
        with pytest.raises(JobConfigurationError):
            normalise_input(["not a record"])

    def test_unknown_record_type_message_names_the_type(self):
        with pytest.raises(JobConfigurationError, match="str"):
            normalise_input(["not a record"])

    def test_mixed_tuples_and_multisets_rejected(self):
        mixed = [InputTuple("a", "x", 1), Multiset("b", {"y": 1})]
        with pytest.raises(JobConfigurationError, match="mixed"):
            normalise_input(mixed)

    def test_mixed_multisets_and_garbage_rejected(self):
        mixed = [Multiset("b", {"y": 1}), "not a record"]
        with pytest.raises(JobConfigurationError, match="mixed"):
            normalise_input(mixed)

    def test_empty_input_yields_named_empty_dataset(self):
        dataset = normalise_input(iter(()))
        assert len(dataset) == 0
        assert dataset.name == "raw_input"


class TestDriverCorrectness:
    @pytest.mark.parametrize("algorithm", JOINING_ALGORITHMS)
    @pytest.mark.parametrize("measure", ["ruzicka", "jaccard", "cosine"])
    def test_matches_exact_join(self, algorithm, measure, small_multisets, test_cluster):
        threshold = 0.3
        config = VSmartJoinConfig(algorithm=algorithm, measure=measure,
                                  threshold=threshold, sharding_threshold=10)
        result = VSmartJoin(config, cluster=test_cluster).run(small_multisets)
        expected = pair_dictionary(all_pairs_exact(small_multisets, measure, threshold))
        produced = pair_dictionary(result.pairs)
        assert set(produced) == set(expected)
        for key in produced:
            assert produced[key] == pytest.approx(expected[key])

    def test_all_algorithms_agree(self, small_multisets, test_cluster):
        results = {}
        for algorithm in JOINING_ALGORITHMS:
            config = VSmartJoinConfig(algorithm=algorithm, threshold=0.25,
                                      sharding_threshold=12)
            results[algorithm] = pair_dictionary(
                VSmartJoin(config, cluster=test_cluster).run(small_multisets).pairs)
        baseline = results["online_aggregation"]
        for algorithm, produced in results.items():
            assert produced.keys() == baseline.keys(), algorithm

    def test_empty_input_returns_no_pairs(self, test_cluster):
        result = VSmartJoin(cluster=test_cluster).run([])
        assert result.pairs == []

    def test_duplicate_free_output(self, small_multisets, test_cluster):
        result = VSmartJoin(VSmartJoinConfig(threshold=0.2),
                            cluster=test_cluster).run(small_multisets)
        pairs = [p.pair for p in result.pairs]
        assert len(pairs) == len(set(pairs))

    def test_accepts_raw_tuples_and_dataset(self, overlapping_multisets, test_cluster):
        records = explode_multisets(overlapping_multisets)
        from_multisets = VSmartJoin(cluster=test_cluster).run(overlapping_multisets)
        from_tuples = VSmartJoin(cluster=test_cluster).run(records)
        from_dataset = VSmartJoin(cluster=test_cluster).run(Dataset.from_records(records))
        assert pair_dictionary(from_multisets.pairs) == pair_dictionary(from_tuples.pairs)
        assert pair_dictionary(from_tuples.pairs) == pair_dictionary(from_dataset.pairs)

    def test_stop_word_preprocessing_runs_extra_job(self, small_multisets, test_cluster):
        config = VSmartJoinConfig(stop_word_frequency=50)
        result = VSmartJoin(config, cluster=test_cluster).run(small_multisets)
        job_names = [stats.job_name for stats in result.pipeline.job_stats]
        assert job_names[0] == "stop_word_filter"

    def test_chunked_similarity_phase_same_results(self, small_multisets, test_cluster):
        plain = VSmartJoin(VSmartJoinConfig(threshold=0.25),
                           cluster=test_cluster).run(small_multisets)
        chunked = VSmartJoin(VSmartJoinConfig(threshold=0.25, chunk_size=4),
                             cluster=test_cluster).run(small_multisets)
        assert pair_dictionary(plain.pairs) == pair_dictionary(chunked.pairs)


class TestDriverReporting:
    def test_phase_split_and_job_names(self, small_multisets, test_cluster):
        result = VSmartJoin(VSmartJoinConfig(algorithm="sharding", sharding_threshold=8),
                            cluster=test_cluster).run(small_multisets)
        names = [stats.job_name for stats in result.pipeline.job_stats]
        assert names == ["sharding1", "sharding2", "similarity1", "similarity2"]
        assert result.joining_seconds > 0
        assert result.similarity_seconds > 0
        assert result.simulated_seconds == pytest.approx(
            result.joining_seconds + result.similarity_seconds)

    def test_lookup_pipeline_has_three_jobs(self, small_multisets, test_cluster):
        result = VSmartJoin(VSmartJoinConfig(algorithm="lookup"),
                            cluster=test_cluster).run(small_multisets)
        names = [stats.job_name for stats in result.pipeline.job_stats]
        assert names == ["lookup1", "lookup2+similarity1", "similarity2"]

    def test_counters_merged(self, small_multisets, test_cluster):
        result = VSmartJoin(cluster=test_cluster).run(small_multisets)
        counters = result.counters()
        assert counters["similarity2/pairs_evaluated"] > 0

    def test_artifacts(self, small_multisets, test_cluster):
        result = VSmartJoin(VSmartJoinConfig(algorithm="lookup", threshold=0.4),
                            cluster=test_cluster).run(small_multisets)
        artifacts = result.pipeline.artifacts
        assert artifacts["algorithm"] == "lookup"
        assert artifacts["measure"] == "ruzicka"
        assert artifacts["threshold"] == 0.4


class TestConvenienceFunction:
    """``repro.join``, the one-call form, over the V-SMART-Join algorithms:
    every keyword reaches the driver."""

    def test_vsmart_join_accepts_overrides(self, overlapping_multisets):
        pairs = join(overlapping_multisets, threshold=0.8,
                     algorithm="sharding", sharding_threshold=2,
                     cluster=laptop_cluster()).pairs
        assert {p.pair for p in pairs} == {("a", "b"), ("d", "e")}

    def test_vsmart_join_forwards_enforce_budgets(self, small_multisets):
        tiny = Cluster(num_machines=4, memory_per_machine=500,
                       disk_per_machine=10_000_000)
        with pytest.raises(MemoryBudgetExceeded):
            join(small_multisets, threshold=0.5, algorithm="lookup",
                 cluster=tiny)
        relaxed = join(small_multisets, threshold=0.5, algorithm="lookup",
                       cluster=tiny, enforce_budgets=False)
        reference = join(small_multisets, threshold=0.5,
                         algorithm="online_aggregation",
                         cluster=laptop_cluster())
        assert {p.pair for p in relaxed} == {p.pair for p in reference}

    def test_vsmart_join_forwards_cost_parameters(self, overlapping_multisets):
        slow = CostParameters(job_overhead_seconds=1_000.0)
        result = join(overlapping_multisets, threshold=0.8,
                      algorithm="online_aggregation",
                      cluster=laptop_cluster(), cost_parameters=slow)
        assert {p.pair for p in result} == {("a", "b"), ("d", "e")}
        assert result.simulated_seconds >= 3_000.0  # 3+ jobs x 1000s overhead


class TestPropertyAgreement:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([0.2, 0.5, 0.8]))
    def test_random_collections_agree_with_exact(self, seed, threshold):
        multisets = make_random_multisets(12, alphabet_size=15, max_elements=8,
                                          seed=seed)
        cluster = laptop_cluster(num_machines=3)
        expected = {p.pair for p in all_pairs_exact(multisets, "ruzicka", threshold)}
        for algorithm in JOINING_ALGORITHMS:
            config = VSmartJoinConfig(algorithm=algorithm, threshold=threshold,
                                      sharding_threshold=4)
            result = VSmartJoin(config, cluster=cluster).run(multisets)
            assert {p.pair for p in result.pairs} == expected, algorithm
