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
from repro.engine import JoinSpec, SimilarityEngine, join
from repro.mapreduce.cluster import Cluster, laptop_cluster
from repro.similarity.exact import all_pairs_exact, pair_dictionary
from repro.similarity.registry import get_measure, supported_measures
from repro.vcl.grouping import SuperElementGrouping
from repro.vcl.kernel import build_kernel_job
from repro.vcl.prefix import (
    PrefixFilter,
    frequency_rank_function,
    hash_rank_function,
    prefix_elements,
    prefix_length,
)
from tests.conftest import assert_matches_oracle, make_random_multisets


def run_vcl(multisets, cluster, **spec_fields):
    """The VCL pipeline on ``cluster``, through the front door."""
    return join(multisets, algorithm="vcl", cluster=cluster, **spec_fields)


def canonical(multiset, rank) -> list:
    """``U(Mi)`` in the canonical order ``rank`` defines."""
    return sorted(multiset.underlying_set, key=rank)

RUZICKA = get_measure("ruzicka")
JACCARD = get_measure("jaccard")


class TestPrefixComputation:
    def test_suffix_weight_below_bound(self):
        multiset = Multiset("m", {f"e{i}": i + 1 for i in range(10)})
        rank = hash_rank_function()
        for threshold in (0.1, 0.5, 0.9):
            prefix = prefix_elements(multiset, rank, RUZICKA, threshold)
            suffix = [e for e in canonical(multiset, rank) if e not in set(prefix)]
            suffix_weight = sum(multiset.multiplicity(e) for e in suffix)
            assert suffix_weight < RUZICKA.size_lower_bound(multiset.cardinality, threshold)

    def test_prefix_is_leading_portion_of_canonical_order(self):
        multiset = Multiset("m", {f"e{i}": 2 for i in range(8)})
        rank = hash_rank_function()
        ordered = canonical(multiset, rank)
        prefix = prefix_elements(multiset, rank, RUZICKA, 0.6)
        assert prefix == ordered[:len(prefix)]

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
        assert canonical(multiset, rank) == ["rare", "common"]

    def test_measure_without_bound_indexes_everything(self):
        measure = get_measure("vector_cosine")
        multiset = Multiset("m", {f"e{i}": 1 for i in range(5)})
        prefix = prefix_elements(multiset, hash_rank_function(), measure, 0.5)
        assert len(prefix) == 5

    def test_single_element_multiset_keeps_its_element(self):
        multiset = Multiset("m", {"only": 3})
        prefix = prefix_elements(multiset, hash_rank_function(), RUZICKA, 0.9)
        assert prefix == ["only"]

    def test_the_filter_cuts_what_prefix_elements_cuts(self, small_multisets):
        """Ranked once per corpus, cut by the one function: the kernel's
        prefixes are the per-multiset ones, for both canonical orders."""
        frequencies: dict = {}
        for multiset in small_multisets:
            for element in multiset:
                frequencies[element] = frequencies.get(element, 0) + 1
        for rank in (hash_rank_function(), frequency_rank_function(frequencies)):
            for measure in (RUZICKA, JACCARD):
                prefixes = PrefixFilter(small_multisets, rank, measure, 0.4)
                for multiset in small_multisets:
                    entity = prefixes.rank(multiset)
                    assert ([prefixes.keys[i] for i in entity.element_ids]
                            == canonical(multiset, rank))
                    assert ([prefixes.keys[i] for i in prefixes.cut(entity)]
                            == prefix_elements(multiset, rank, measure, 0.4))

    def test_prefix_length_edges(self):
        assert prefix_length([], RUZICKA, 0.5) == 0
        # A measure without a size bound keeps the whole entity.
        assert prefix_length([1.0, 1.0], get_measure("vector_cosine"), 0.5) == 2
        # Unit weights: the classical |U| - ceil(t |U|) + 1.
        assert prefix_length([1.0] * 10, JACCARD, 0.8) == 3


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

    def test_grouping_keeps_jaccard_pairs(self):
        """Each super-element used to weigh 1 under a set measure, whatever
        its member count, so grouping lowered the overlap and lost a true
        pair."""
        multisets = make_random_multisets(14, alphabet_size=20, max_elements=8,
                                          seed=17)
        result = run_vcl(multisets, laptop_cluster(num_machines=3),
                         measure="jaccard", threshold=0.3,
                         vcl_super_element_groups=8)
        assert ("m0", "m5") in {pair.pair for pair in result.pairs}
        assert_matches_oracle(result.pairs, multisets, "jaccard", 0.3)

    def test_grouping_keeps_set_dice_pairs(self):
        multisets = make_random_multisets(14, alphabet_size=20, max_elements=8,
                                          seed=6)
        result = run_vcl(multisets, laptop_cluster(num_machines=3),
                         measure="set_dice", threshold=0.7,
                         vcl_super_element_groups=2)
        assert ("m4", "m5") in {pair.pair for pair in result.pairs}
        assert_matches_oracle(result.pairs, multisets, "set_dice", 0.7)

    @settings(max_examples=40, deadline=None)
    @given(measure=st.sampled_from(sorted(supported_measures())),
           groups=st.sampled_from([1, 2, 4, 8]),
           threshold=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_grouping_never_loses_a_pair(self, measure, groups, threshold, seed):
        multisets = make_random_multisets(14, alphabet_size=20, max_elements=8,
                                          seed=seed)
        result = run_vcl(multisets, laptop_cluster(num_machines=3),
                         measure=measure, threshold=threshold,
                         vcl_super_element_groups=groups)
        assert_matches_oracle(result.pairs, multisets, measure, threshold)

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
#: algorithm and any other spec fields (as JSON) are the arguments, the
#: corpus arrives on standard input.
HASH_SEED_PROBE = """
import dataclasses, json, sys
from repro import JoinSpec, Multiset, SimilarityEngine

corpus = [Multiset(identifier, counts) for identifier, counts in json.load(sys.stdin)]
spec = JoinSpec(measure="ruzicka", threshold=0.3, algorithm=sys.argv[1],
                **json.loads(sys.argv[2]))
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

    def job_stats(algorithm: str, fields: dict,
                  hash_seeds: tuple[str, ...]) -> list[str]:
        probes = [subprocess.Popen(
            [sys.executable, "-c", HASH_SEED_PROBE, algorithm,
             json.dumps(fields)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed,
                     PYTHONPATH=os.pathsep.join(sys.path)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for hash_seed in hash_seeds]
        outputs = [probe.communicate(corpus, timeout=120)[0] for probe in probes]
        assert [probe.returncode for probe in probes] == [0] * len(probes)
        return outputs

    for algorithm, fields in (("sharding", {}), ("online_aggregation", {}),
                              ("lookup", {}), ("vcl", {}),
                              ("vcl", {"vcl_element_order": "hash"}),
                              ("vcl", {"vcl_super_element_groups": 8})):
        first, second = job_stats(algorithm, fields, ("1", "2"))
        assert first and first == second, (algorithm, fields)


@pytest.mark.parametrize("fields", [
    {}, {"vcl_element_order": "hash"}, {"vcl_super_element_groups": 8},
    {"vcl_super_element_groups": 8, "measure": "jaccard"}],
    ids=["frequency", "hash", "grouped", "grouped-jaccard"])
def test_the_planner_prices_the_kernels_replication_exactly(small_multisets,
                                                            fields):
    """The planner cuts every prefix the way the mapper does, grouping
    included, so the kernel's replication is predicted to the record and
    the byte."""
    engine = SimilarityEngine(cluster=laptop_cluster(num_machines=6))
    spec = JoinSpec(algorithm="vcl", threshold=0.4, **fields)
    (planned,) = [job.stats for job in engine.plan(spec, small_multisets).chosen.jobs
                  if job.name == "vcl_kernel"]
    (ran,) = [stats for stats in engine.run(spec, small_multisets).pipeline.job_stats
              if stats.job_name == "vcl_kernel"]
    assert planned.map.records_out == ran.map.records_out
    assert planned.map.bytes_out == ran.map.bytes_out
    assert planned.reduce_groups == ran.reduce_groups
    assert planned.max_group_bytes == ran.max_group_bytes


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

    @pytest.mark.parametrize("measure", [RUZICKA, JACCARD], ids=["ruzicka", "jaccard"])
    def test_grouped_weights_keep_the_effective_size(self, measure):
        """A super-element weighs its members' effective multiplicities:
        the weights sum to ``|M|`` under a multiset measure and to ``|U(M)|``
        under a set measure."""
        multiset = Multiset("m", {f"e{i}": i + 1 for i in range(10)})
        prefixes = PrefixFilter([multiset], hash_rank_function(), measure,
                                0.5, SuperElementGrouping(4))
        positions, weights = prefixes.weights(prefixes.rank(multiset))
        assert len(positions) <= 4
        assert sum(weights) == (multiset.underlying_cardinality
                                if measure is JACCARD else multiset.cardinality)

    @pytest.mark.parametrize("measure", [RUZICKA, JACCARD], ids=["ruzicka", "jaccard"])
    def test_grouped_overlap_never_underestimates(self, measure):
        first = Multiset("a", {f"e{i}": 2 for i in range(6)})
        second = Multiset("b", {f"e{i}": 1 for i in range(3, 9)})
        prefixes = PrefixFilter([first, second], hash_rank_function(), measure,
                                0.5, SuperElementGrouping(3))
        grouped = [dict(zip(*prefixes.weights(prefixes.rank(multiset))))
                   for multiset in (first, second)]
        grouped_overlap = sum(min(weight, grouped[1].get(group, 0.0))
                              for group, weight in grouped[0].items())
        effective = measure.effective_multiplicity
        overlap = sum(min(effective(first.multiplicity(element)),
                          effective(second.multiplicity(element)))
                      for element in first if element in second)
        assert grouped_overlap >= overlap

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
