"""Tests for the VCL baseline: prefix filtering, kernel, dedup, grouping."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import JobConfigurationError, MemoryBudgetExceeded
from repro.core.multiset import Multiset
from repro.engine import JoinSpec, join
from repro.mapreduce.cluster import Cluster, laptop_cluster
from repro.similarity.exact import all_pairs_exact, pair_dictionary
from repro.similarity.registry import get_measure
from repro.vcl.grouping import SuperElementGrouping
from repro.vcl.kernel import build_kernel_job
from repro.vcl.prefix import (
    frequency_rank_function,
    hash_rank_function,
    ordered_elements,
    prefix_elements,
    prefix_length_classic,
)
from tests.conftest import assert_matches_oracle, make_random_multisets


def run_vcl(multisets, cluster, **spec_fields):
    """The VCL pipeline on ``cluster``, through the front door."""
    return join(multisets, algorithm="vcl", cluster=cluster, **spec_fields)

RUZICKA = get_measure("ruzicka")
JACCARD = get_measure("jaccard")


class TestPrefixComputation:
    def test_suffix_weight_below_bound(self):
        multiset = Multiset("m", {f"e{i}": i + 1 for i in range(10)})
        rank = hash_rank_function()
        for threshold in (0.1, 0.5, 0.9):
            prefix = prefix_elements(multiset, rank, RUZICKA, threshold)
            suffix = [e for e in ordered_elements(multiset, rank) if e not in set(prefix)]
            suffix_weight = sum(multiset.multiplicity(e) for e in suffix)
            assert suffix_weight < RUZICKA.size_lower_bound(multiset.cardinality, threshold)

    def test_prefix_is_leading_portion_of_canonical_order(self):
        multiset = Multiset("m", {f"e{i}": 2 for i in range(8)})
        rank = hash_rank_function()
        ordered = ordered_elements(multiset, rank)
        prefix = prefix_elements(multiset, rank, RUZICKA, 0.6)
        assert prefix == ordered[:len(prefix)]

    def test_unit_multiplicities_match_classic_length(self):
        multiset = Multiset("m", {f"e{i}": 1 for i in range(10)})
        rank = hash_rank_function()
        for threshold in (0.3, 0.5, 0.8):
            prefix = prefix_elements(multiset, rank, JACCARD, threshold)
            assert len(prefix) == prefix_length_classic(10, JACCARD, threshold)

    def test_higher_threshold_means_shorter_prefix(self):
        multiset = Multiset("m", {f"e{i}": 1 for i in range(20)})
        rank = hash_rank_function()
        low = prefix_elements(multiset, rank, RUZICKA, 0.1)
        high = prefix_elements(multiset, rank, RUZICKA, 0.9)
        assert len(high) <= len(low)

    def test_frequency_rank_puts_rare_elements_first(self):
        frequencies = {"common": 100, "rare": 1}
        rank = frequency_rank_function(frequencies)
        multiset = Multiset("m", {"common": 1, "rare": 1})
        assert ordered_elements(multiset, rank) == ["rare", "common"]

    def test_measure_without_bound_indexes_everything(self):
        measure = get_measure("vector_cosine")
        multiset = Multiset("m", {f"e{i}": 1 for i in range(5)})
        prefix = prefix_elements(multiset, hash_rank_function(), measure, 0.5)
        assert len(prefix) == 5

    def test_single_element_multiset_keeps_its_element(self):
        multiset = Multiset("m", {"only": 3})
        prefix = prefix_elements(multiset, hash_rank_function(), RUZICKA, 0.9)
        assert prefix == ["only"]


class TestVCLCorrectness:
    @pytest.mark.parametrize("measure", ["ruzicka", "jaccard", "dice", "cosine"])
    @pytest.mark.parametrize("threshold", [0.3, 0.6])
    def test_matches_exact_join(self, small_multisets, test_cluster, measure, threshold):
        result = run_vcl(small_multisets, test_cluster, measure=measure,
                         threshold=threshold)
        assert_matches_oracle(result.pairs, small_multisets, measure, threshold)

    def test_hash_order_matches_frequency_order(self, small_multisets, test_cluster):
        frequency = run_vcl(small_multisets, test_cluster, threshold=0.4,
                            vcl_element_order="frequency")
        hashed = run_vcl(small_multisets, test_cluster, threshold=0.4,
                         vcl_element_order="hash")
        assert pair_dictionary(frequency.pairs) == pair_dictionary(hashed.pairs)

    def test_grouping_does_not_lose_pairs(self, small_multisets, test_cluster):
        plain = run_vcl(small_multisets, test_cluster, threshold=0.4)
        grouped = run_vcl(small_multisets, test_cluster, threshold=0.4,
                          vcl_super_element_groups=16)
        assert pair_dictionary(plain.pairs) == pair_dictionary(grouped.pairs)

    def test_grouping_verifies_more_candidates(self, small_multisets, test_cluster):
        plain = run_vcl(small_multisets, test_cluster, threshold=0.4)
        grouped = run_vcl(small_multisets, test_cluster, threshold=0.4,
                          vcl_super_element_groups=8)
        assert (grouped.counters()["vcl/pairs_verified"]
                >= plain.counters()["vcl/pairs_verified"])

    def test_deduplication(self, small_multisets, test_cluster):
        result = run_vcl(small_multisets, test_cluster, threshold=0.2)
        pairs = [p.pair for p in result.pairs]
        assert len(pairs) == len(set(pairs))

    def test_pipeline_structure(self, small_multisets, test_cluster):
        result = run_vcl(small_multisets, test_cluster)
        assert result.job_names() == ["vcl_frequencies", "vcl_kernel",
                                      "vcl_dedup"]
        hash_result = run_vcl(small_multisets, test_cluster,
                              vcl_element_order="hash")
        assert hash_result.job_names() == ["vcl_kernel", "vcl_dedup"]

    def test_convenience_function(self, overlapping_multisets):
        pairs = join(overlapping_multisets, algorithm="vcl", threshold=0.8,
                     cluster=laptop_cluster()).pairs
        assert {p.pair for p in pairs} == {("a", "b"), ("d", "e")}

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.3, 0.7]))
    def test_random_collections_match_exact(self, seed, threshold):
        multisets = make_random_multisets(12, alphabet_size=15, max_elements=8, seed=seed)
        cluster = laptop_cluster(num_machines=3)
        result = run_vcl(multisets, cluster, threshold=threshold)
        expected = {p.pair for p in all_pairs_exact(multisets, "ruzicka", threshold)}
        assert {p.pair for p in result.pairs} == expected


#: Prints the per-job statistics of one join over string elements: the
#: algorithm is the argument, the corpus arrives on standard input.
HASH_SEED_PROBE = """
import dataclasses, json, sys
from repro import JoinSpec, Multiset, SimilarityEngine

corpus = [Multiset(identifier, counts) for identifier, counts in json.load(sys.stdin)]
spec = JoinSpec(measure="ruzicka", threshold=0.3, algorithm=sys.argv[1])
result = SimilarityEngine().run(spec, corpus)
print(json.dumps([dataclasses.asdict(stats)
                  for stats in result.pipeline.job_stats], sort_keys=True))
"""


def test_job_stats_do_not_depend_on_the_hash_seed():
    """Emission order (hence machines, combine groups, shuffle bytes and
    simulated seconds) must come from the data, not from ``hash(str)`` —
    for every algorithm: the regression checker's band assumes it."""
    corpus = json.dumps([
        (multiset.id, dict(multiset.items()))
        for multiset in make_random_multisets(40, alphabet_size=60,
                                              max_elements=25, seed=7)])

    def job_stats(algorithm: str, hash_seeds: tuple[str, ...]) -> list[str]:
        probes = [subprocess.Popen(
            [sys.executable, "-c", HASH_SEED_PROBE, algorithm],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed,
                     PYTHONPATH=os.pathsep.join(sys.path)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for hash_seed in hash_seeds]
        outputs = [probe.communicate(corpus, timeout=120)[0] for probe in probes]
        assert [probe.returncode for probe in probes] == [0] * len(probes)
        return outputs

    for algorithm in ("sharding", "online_aggregation", "lookup", "vcl"):
        first, second = job_stats(algorithm, ("1", "2"))
        assert first and first == second, algorithm


class TestVCLScalabilityLimits:
    def test_alphabet_side_data_can_exhaust_memory(self):
        cluster = Cluster(num_machines=2, memory_per_machine=2_000,
                          disk_per_machine=10 ** 9)
        multisets = [Multiset(f"m{i}", {f"element{j:05d}": 1 for j in range(30)})
                     for i in range(10)]
        with pytest.raises(MemoryBudgetExceeded):
            run_vcl(multisets, cluster, threshold=0.5)

    def test_whole_multiset_records_can_exhaust_memory(self):
        cluster = Cluster(num_machines=2, memory_per_machine=2_500,
                          disk_per_machine=10 ** 9)
        big = [Multiset("big1", {f"e{i:05d}": 1 for i in range(200)}),
               Multiset("big2", {f"e{i:05d}": 1 for i in range(200)})]
        with pytest.raises(MemoryBudgetExceeded):
            run_vcl(big, cluster, threshold=0.5, vcl_element_order="hash")


class TestGroupingAndConfig:
    def test_grouping_validation(self):
        with pytest.raises(ValueError):
            SuperElementGrouping(0)

    def test_group_multiset_preserves_cardinality(self):
        grouping = SuperElementGrouping(4)
        multiset = Multiset("m", {f"e{i}": i + 1 for i in range(10)})
        grouped = grouping.group_multiset(multiset)
        assert grouped.cardinality == multiset.cardinality
        assert grouped.underlying_cardinality <= 4

    def test_grouped_similarity_never_underestimates(self):
        grouping = SuperElementGrouping(3)
        first = Multiset("a", {f"e{i}": 2 for i in range(6)})
        second = Multiset("b", {f"e{i}": 1 for i in range(3, 9)})
        original = RUZICKA.similarity(first, second)
        grouped = RUZICKA.similarity(grouping.group_multiset(first),
                                     grouping.group_multiset(second))
        assert grouped >= original - 1e-12

    def test_config_validation(self):
        with pytest.raises(JobConfigurationError):
            JoinSpec(vcl_element_order="alphabetical")
        with pytest.raises(JobConfigurationError):
            JoinSpec(vcl_super_element_groups=0)
        with pytest.raises(ValueError):
            JoinSpec(algorithm="vcl", threshold=2.0)

    def test_kernel_job_side_data_only_for_frequency_order(self):
        job = build_kernel_job(RUZICKA, 0.5, {"a": 1}, use_frequency_order=True)
        assert job.side_data == {"a": 1}
        job = build_kernel_job(RUZICKA, 0.5, {"a": 1}, use_frequency_order=False)
        assert job.side_data is None
