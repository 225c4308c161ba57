"""Tests for the V-SMART-Join pipelines, run the way every join runs:
through the engine (``repro.join`` / ``SimilarityEngine.run``)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import (
    JobConfigurationError,
    MeasureNotApplicableError,
    MemoryBudgetExceeded,
    ServingError,
)
from repro.core.multiset import Multiset
from repro.core.records import InputTuple, explode_multisets
from repro.engine import JoinSpec, join
from repro.mapreduce.cluster import Cluster, laptop_cluster
from repro.mapreduce.costmodel import CostParameters
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.runner import LocalJobRunner
from repro.serving.bootstrap import multisets_from_input
from repro.similarity.exact import all_pairs_exact, pair_dictionary
from repro.vsmart.driver import JOINING_ALGORITHMS, VSmartJoin
from tests.conftest import assert_matches_oracle, make_random_multisets


def run_join(data, cluster, algorithm="online_aggregation", **spec_fields):
    """One V-SMART-Join pipeline on ``cluster``, through the front door."""
    return join(data, cluster=cluster, algorithm=algorithm, **spec_fields)


class TestConfig:
    """The V-SMART knobs of :class:`JoinSpec`, the one place they live."""

    def test_defaults(self):
        spec = JoinSpec()
        assert spec.threshold == 0.5
        assert spec.sharding_threshold == 1024
        assert spec.use_combiners and spec.prune_candidates
        assert spec.stop_word_frequency is None and spec.chunk_size is None

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(JobConfigurationError):
            JoinSpec(algorithm="magic")

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            JoinSpec(threshold=0.0)

    def test_invalid_sharding_threshold_rejected(self):
        with pytest.raises(JobConfigurationError):
            JoinSpec(sharding_threshold=0)

    def test_disjunctive_measure_rejected_at_run_time(self, small_multisets,
                                                      test_cluster):
        with pytest.raises(MeasureNotApplicableError):
            run_join(small_multisets, test_cluster, measure="direct_ruzicka")

    def test_driver_rejects_non_joining_algorithm(self, test_cluster):
        runner = LocalJobRunner(test_cluster)
        with pytest.raises(JobConfigurationError, match="vcl"):
            VSmartJoin(JoinSpec(algorithm="vcl"), runner)
        with pytest.raises(JobConfigurationError, match="auto"):
            VSmartJoin(JoinSpec(), runner)  # "auto" needs the plan's choice
        assert VSmartJoin(JoinSpec(), runner, "lookup").algorithm == "lookup"


class TestNormaliseInput:
    """``multisets_from_input``, the engine's (only) input normaliser."""

    def test_multisets(self, overlapping_multisets):
        assert multisets_from_input(overlapping_multisets) \
            == overlapping_multisets
        # A one-shot iterator is materialised, once.
        assert multisets_from_input(iter(overlapping_multisets)) \
            == overlapping_multisets

    def test_input_tuples(self, overlapping_multisets):
        records = explode_multisets(overlapping_multisets)
        assert multisets_from_input(records) == overlapping_multisets
        assert multisets_from_input(Dataset.from_records(records)) \
            == overlapping_multisets

    def test_empty_input(self):
        assert multisets_from_input([]) == []
        assert multisets_from_input(iter(())) == []
        assert multisets_from_input({}) == []

    def test_garbage_rejected(self):
        with pytest.raises(ServingError):
            multisets_from_input(["not a record"])

    def test_unknown_record_type_message_names_the_type(self):
        with pytest.raises(ServingError, match="str"):
            multisets_from_input(["not a record"])

    def test_mixed_tuples_and_multisets_rejected(self):
        mixed = [InputTuple("a", "x", 1), Multiset("b", {"y": 1})]
        with pytest.raises(ServingError, match="mixed"):
            multisets_from_input(mixed)

    def test_mixed_multisets_and_garbage_rejected(self):
        mixed = [Multiset("b", {"y": 1}), "not a record"]
        with pytest.raises(ServingError, match="mixed"):
            multisets_from_input(mixed)
        with pytest.raises(ServingError, match="mixed"):
            multisets_from_input({"b": mixed[0], "c": mixed[1]})


class TestDriverCorrectness:
    @pytest.mark.parametrize("algorithm", JOINING_ALGORITHMS)
    @pytest.mark.parametrize("measure", ["ruzicka", "jaccard", "cosine"])
    def test_matches_exact_join(self, algorithm, measure, small_multisets, test_cluster):
        threshold = 0.3
        result = run_join(small_multisets, test_cluster, algorithm,
                          measure=measure, threshold=threshold,
                          sharding_threshold=10)
        assert_matches_oracle(result.pairs, small_multisets, measure, threshold)

    def test_all_algorithms_agree(self, small_multisets, test_cluster):
        results = {}
        for algorithm in JOINING_ALGORITHMS:
            results[algorithm] = pair_dictionary(
                run_join(small_multisets, test_cluster, algorithm,
                         threshold=0.25, sharding_threshold=12).pairs)
        baseline = results["online_aggregation"]
        for algorithm, produced in results.items():
            assert produced.keys() == baseline.keys(), algorithm

    def test_empty_input_returns_no_pairs(self, test_cluster):
        assert run_join([], test_cluster).pairs == []

    def test_duplicate_free_output(self, small_multisets, test_cluster):
        result = run_join(small_multisets, test_cluster, threshold=0.2)
        pairs = [p.pair for p in result.pairs]
        assert len(pairs) == len(set(pairs))

    def test_accepts_raw_tuples_and_dataset(self, overlapping_multisets, test_cluster):
        records = explode_multisets(overlapping_multisets)
        from_multisets = run_join(overlapping_multisets, test_cluster)
        from_tuples = run_join(records, test_cluster)
        from_dataset = run_join(Dataset.from_records(records), test_cluster)
        assert pair_dictionary(from_multisets.pairs) == pair_dictionary(from_tuples.pairs)
        assert pair_dictionary(from_tuples.pairs) == pair_dictionary(from_dataset.pairs)

    def test_stop_word_preprocessing_runs_extra_job(self, small_multisets, test_cluster):
        result = run_join(small_multisets, test_cluster,
                          stop_word_frequency=50)
        assert result.job_names()[0] == "stop_word_filter"

    def test_chunked_similarity_phase_same_results(self, small_multisets, test_cluster):
        plain = run_join(small_multisets, test_cluster, threshold=0.25)
        chunked = run_join(small_multisets, test_cluster, threshold=0.25,
                           chunk_size=4)
        assert pair_dictionary(plain.pairs) == pair_dictionary(chunked.pairs)


class TestDriverReporting:
    def test_phase_split_and_job_names(self, small_multisets, test_cluster):
        result = run_join(small_multisets, test_cluster, "sharding",
                          sharding_threshold=8)
        assert result.job_names() == ["sharding1", "sharding2", "similarity1",
                                      "similarity2"]
        assert result.joining_seconds > 0
        assert result.similarity_seconds > 0
        assert result.simulated_seconds == pytest.approx(
            result.joining_seconds + result.similarity_seconds)

    def test_lookup_pipeline_has_three_jobs(self, small_multisets, test_cluster):
        result = run_join(small_multisets, test_cluster, "lookup")
        assert result.job_names() == ["lookup1", "lookup2+similarity1",
                                      "similarity2"]

    def test_counters_merged(self, small_multisets, test_cluster):
        counters = run_join(small_multisets, test_cluster).counters()
        assert counters["similarity2/pairs_evaluated"] > 0

    def test_artifacts(self, small_multisets, test_cluster):
        result = run_join(small_multisets, test_cluster, "lookup",
                          threshold=0.4)
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
            result = run_join(multisets, cluster, algorithm,
                              threshold=threshold, sharding_threshold=4)
            assert {p.pair for p in result.pairs} == expected, algorithm
