"""Tests for the VCL baseline: prefix filtering, kernel, dedup, grouping."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.exceptions import JobConfigurationError, MemoryBudgetExceeded
from repro.core.multiset import Multiset
from repro.core.records import SimilarPair, canonical_pair
from repro.engine import JoinSpec, SimilarityEngine, join
from repro.engine.planner import CorpusProfile, Planner, _prefix_rows
from repro.mapreduce.backends import get_backend
from repro.mapreduce.cluster import Cluster, laptop_cluster
from repro.mapreduce.job import Reducer, SummingCombiner
from repro.mapreduce.types import walk_record_bytes
from repro.similarity.exact import all_pairs_exact, pair_dictionary
from repro.similarity.kernels import interned_similarity
from repro.similarity.measures import RuzickaSimilarity
from repro.similarity.registry import get_measure, list_measures
from repro.vcl import kernel
from repro.vcl.grouping import SuperElementGrouping
from repro.vcl.kernel import (
    DeduplicationReducer,
    ElementFrequencyCombiner,
    ElementFrequencyReducer,
    VCLKernelReducer,
    build_kernel_job,
)
from repro.vcl.prefix import (
    PrefixFilter,
    frequency_rank_function,
    hash_rank_function,
    prefix_elements,
    prefix_length,
)
from tests.conftest import assert_matches_oracle, make_random_multisets
from tests.test_hot_path import SharedElements


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
    @given(measure=st.sampled_from(list_measures(supported_only=True)),
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


def reference_vcl_jobs(planner, spec, measure, multisets, profile, cluster):
    """The planner's VCL jobs, priced the way it priced them from a
    :class:`PrefixFilter`: a frequency dict and a rank function over the
    dictionary, the filter's ranks, cuts and key sizes, and per-key dicts.
    """
    container, word = 16, 8
    overhead = planner.cost_parameters.record_overhead_bytes
    machines = max(1, cluster.num_machines)
    use_frequency = spec.vcl_element_order == "frequency"
    dictionary = profile.dictionary
    frequencies = {element: dictionary.frequency_of(element)
                   for element in dictionary}
    records = profile.num_records
    element_b = profile.avg_element_bytes
    kv_count = container + element_b + word + 1
    combined_counts = float(sum(min(df, machines)
                                for df in frequencies.values()))
    frequency_entry = container + element_b + word
    jobs = []
    if use_frequency:
        shuffle_f = combined_counts * kv_count
        max_df = profile.max_document_frequency
        jobs.append(planner._job(
            "vcl_frequencies", cluster,
            map_records=profile.num_multisets,
            map_bytes_in=sum(profile.multiset_bytes),
            map_bytes_out=records * kv_count,
            map_emitted=records,
            map_max_unit=(max(profile.multiset_bytes, default=0)
                          + profile.max_cardinality * kv_count
                          + overhead * (1 + profile.max_cardinality)),
            extra_map_work=(records * kv_count + shuffle_f
                            + overhead * records),
            reduce_records=combined_counts,
            reduce_groups=profile.alphabet_size,
            reduce_bytes_in=shuffle_f,
            reduce_bytes_out=profile.alphabet_size * frequency_entry,
            reduce_max_unit=(min(max_df, machines) * kv_count
                             + frequency_entry
                             + overhead * min(max_df, machines)),
            shuffle_bytes=shuffle_f,
            max_group_bytes=min(max_df, machines) * kv_count))
    rank = (frequency_rank_function(frequencies) if use_frequency
            else hash_rank_function())
    grouping = (None if spec.vcl_super_element_groups is None
                else SuperElementGrouping(spec.vcl_super_element_groups))
    prefixes = PrefixFilter(multisets, rank, measure, spec.threshold,
                            grouping)
    replicated_bytes = 0.0
    max_unit = 0.0
    group_bytes: dict = {}
    group_records: dict = {}
    total_prefix = 0
    for multiset, m_bytes in zip(multisets, profile.multiset_bytes):
        prefix = prefixes.cut(prefixes.rank(multiset))
        total_prefix += len(prefix)
        kvs = [container + prefixes.key_bytes[position] + m_bytes + 1
               for position in prefix]
        replicated_bytes += sum(kvs)
        max_unit = max(max_unit, m_bytes + sum(kvs)
                       + overhead * (1 + len(prefix)))
        for position, kv in zip(prefix, kvs):
            group_bytes[position] = group_bytes.get(position, 0.0) + kv
            group_records[position] = group_records.get(position, 0) + 1
    max_group = max(group_bytes.values(), default=0.0)
    hot_records = max(group_records.values(), default=0)
    jobs.append(planner._job(
        "vcl_kernel", cluster,
        map_records=profile.num_multisets,
        map_bytes_in=sum(profile.multiset_bytes),
        map_bytes_out=replicated_bytes,
        map_emitted=total_prefix,
        map_max_unit=max_unit,
        reduce_records=total_prefix,
        reduce_groups=len(group_bytes),
        reduce_bytes_in=replicated_bytes,
        reduce_bytes_out=0,
        reduce_max_unit=max_group + overhead * hot_records,
        shuffle_bytes=replicated_bytes,
        max_group_bytes=max_group,
        side_data_bytes=(container + profile.alphabet_size
                         * (element_b + word) if use_frequency else 0),
        materialises_groups=True))
    jobs.append(planner._job("vcl_dedup", cluster))
    return jobs


#: Two NaNs: distinct elements with one ``repr``, hence one rank hash.
NAN_A = float("nan")
NAN_B = float("nan")
#: A small mixed alphabet, so multisets overlap and hashes can tie.
ALPHABET = ["a", "b", "c", "d", "e", 1, 2, (1,), 1.5, NAN_A, NAN_B]


@st.composite
def vcl_corpora(draw) -> list[Multiset]:
    """A few multisets over :data:`ALPHABET`, with or without its NaNs,
    multiplicities 1 to 4."""
    alphabet = draw(st.sampled_from([ALPHABET, ALPHABET[:-2]]))
    return [Multiset(f"m{index}", counts) for index, counts in enumerate(
        draw(st.lists(st.dictionaries(st.sampled_from(alphabet),
                                      st.integers(1, 4), min_size=1,
                                      max_size=7),
                      min_size=1, max_size=9)))]


@st.composite
def tied_corpora(draw) -> list[Multiset]:
    """Multisets that all hold one pool of elements, with multiplicities 1
    to 9, plus up to three elements of their own, and maybe an empty one.

    The pool's elements share a document frequency, so under the frequency
    order a cut that falls among them depends on their rank hashes, and a
    heavy last element can end the id order's prefix at the multiset's
    length while a lighter one ranked last would join the suffix."""
    pool = [f"p{index}" for index in range(draw(st.integers(2, 8)))]
    multisets = []
    for index in range(draw(st.integers(1, 6))):
        counts = {element: draw(st.integers(1, 9)) for element in pool}
        counts.update({f"m{index}-{own}": draw(st.integers(1, 9))
                       for own in range(draw(st.integers(0, 3)))})
        multisets.append(Multiset(f"m{index}", counts))
    if draw(st.booleans()):
        multisets.insert(draw(st.integers(0, len(multisets))),
                         Multiset("empty", {}))
    return multisets


class SquareRootRuzicka(RuzickaSimilarity):
    """Ruzicka over square-rooted multiplicities: a non-integral effective
    multiplicity, whose sums depend on their order."""

    def effective_multiplicity(self, multiplicity: float) -> float:
        return math.sqrt(multiplicity) if multiplicity > 0 else 0.0


class OversizedBoundRuzicka(RuzickaSimilarity):
    """Ruzicka with a size bound above the entity's own size: every element
    fits the suffix, and ``prefix_length`` keeps the first one alone."""

    def size_lower_bound(self, size: float, threshold: float) -> float:
        return 2.0 * size


def assert_estimate_is_the_reference(multisets, spec, measure) -> None:
    """Every planned VCL job's name, statistics (to their ``repr``) and
    cost equal the reference's."""
    planner = Planner()
    cluster = laptop_cluster()
    profile = CorpusProfile.from_multisets(multisets)
    estimated = planner._estimate_vcl(spec, measure, multisets, profile,
                                      cluster)
    reference = reference_vcl_jobs(planner, spec, measure, multisets,
                                   profile, cluster)
    assert [(job.name, repr(job.stats), job.cost) for job in estimated] == [
        (job.name, repr(job.stats), job.cost) for job in reference]


def achieved_threshold(multisets, measure, pick: int) -> float:
    """A similarity some pair of the corpus reaches exactly (or 0.5)."""
    achieved = sorted({pair.similarity for pair in
                       all_pairs_exact(multisets, measure, 1e-9)})
    return achieved[pick % len(achieved)] if achieved else 0.5


class TestPlannerEstimate:
    """The planner cuts VCL's prefixes in one order-free pass over the
    profile's columns (``_prefix_rows``), re-ranking by hash only the class
    of equal document frequency that holds a multiset's last prefix
    element, and falls back to a ``PrefixFilter``.  Held to the reference
    that ranks every corpus with a ``PrefixFilter``.  Scratch copies of the
    pass that skip the re-cut, re-rank by id instead of by rank hash, skip
    the re-cut where the id order's cut is the multiset's length, or drop
    an empty multiset's unit from the largest map unit fail here."""

    @given(multisets=vcl_corpora(),
           measure_name=st.sampled_from(list_measures(supported_only=True)),
           order=st.sampled_from(["frequency", "hash"]),
           groups=st.sampled_from([None, 1, 3, 16]),
           pick=st.integers(min_value=0))
    @settings(max_examples=200, deadline=None)
    # NAN_A comes first but is the more frequent NaN: ranked by first
    # appearance it precedes NAN_B, ranked by dictionary id it follows it,
    # and at t = 0.5 m1's prefix is then one element shorter.
    @example(multisets=[Multiset("m0", {NAN_A: 1}),
                        Multiset("m1", {NAN_A: 1, NAN_B: 3}),
                        Multiset("m2", {"a": 1}),
                        Multiset("m3", {"a": 1, "b": 1})],
             measure_name="ruzicka", order="hash", groups=None, pick=1)
    def test_estimate_equals_the_prefix_filter_reference(
            self, multisets, measure_name, order, groups, pick):
        """At a threshold some pair of the corpus reaches exactly; the NaNs
        share a rank hash, which only the fallback ranks right."""
        measure = get_measure(measure_name)
        spec = JoinSpec(measure=measure_name,
                        threshold=achieved_threshold(multisets, measure, pick),
                        vcl_element_order=order,
                        vcl_super_element_groups=groups)
        assert_estimate_is_the_reference(multisets, spec, measure)

    @given(multisets=tied_corpora(),
           measure_name=st.sampled_from(list_measures(supported_only=True)),
           order=st.sampled_from(["frequency", "hash"]),
           threshold=st.one_of(st.integers(min_value=0),
                               st.floats(0.01, 1.0)))
    @settings(max_examples=200, deadline=None)
    # x and y tie on document frequency; x has the smaller id, y the
    # smaller rank hash.  At t = 0.2 (m0 and m1's similarity) m0's heavy
    # y ends the id order's prefix at m0's length, {x, y}; ranked by hash
    # x comes last, joins the suffix, and the prefix is {y}.
    @example(multisets=[Multiset("m0", {"x": 1, "y": 9}),
                        Multiset("m1", {"x": 1, "y": 1})],
             measure_name="ruzicka", order="frequency", threshold=0)
    # An empty multiset emits nothing, yet its map unit (its bytes plus one
    # record's overhead) is the largest of the corpus.
    @example(multisets=[Multiset("m0", {"x": 1}),
                        Multiset("m1", {"x": 1}),
                        Multiset("an-empty-multiset-" * 12, {})],
             measure_name="ruzicka", order="frequency", threshold=0)
    def test_cuts_inside_tied_classes_equal_the_reference(
            self, multisets, measure_name, order, threshold):
        """Many equal-frequency elements of unequal multiplicity straddle
        the cuts.  An int ``threshold`` picks an achieved similarity."""
        measure = get_measure(measure_name)
        if isinstance(threshold, int):
            threshold = achieved_threshold(multisets, measure, threshold)
        spec = JoinSpec(measure=measure_name, threshold=threshold,
                        vcl_element_order=order)
        assert_estimate_is_the_reference(multisets, spec, measure)

    @given(multisets=st.one_of(vcl_corpora(), tied_corpora()),
           order=st.sampled_from(["frequency", "hash"]),
           threshold=st.floats(0.01, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_non_integral_weights_take_the_prefix_filter(
            self, multisets, order, threshold):
        """The pass declines weights whose sums depend on their order, and
        the ``PrefixFilter`` fallback prices them as the reference does."""
        measure = SquareRootRuzicka()
        spec = JoinSpec(threshold=threshold, vcl_element_order=order)
        profile = CorpusProfile.from_multisets(multisets)
        if not all(math.sqrt(multiplicity).is_integer() for multiplicity
                   in profile.columns.multiplicities):
            assert _prefix_rows(profile, measure, threshold,
                                order == "frequency") is None
        assert_estimate_is_the_reference(multisets, spec, measure)

    @given(multisets=st.one_of(vcl_corpora(), tied_corpora()),
           order=st.sampled_from(["frequency", "hash"]),
           threshold=st.floats(0.01, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_a_suffix_that_takes_everything_leaves_the_first_element(
            self, multisets, order, threshold):
        """Where the bound exceeds a multiset's size the prefix is its
        canonically first element, which within a class of equal frequency
        only the rank hashes name."""
        spec = JoinSpec(threshold=threshold, vcl_element_order=order)
        assert_estimate_is_the_reference(multisets, spec,
                                         OversizedBoundRuzicka())


class ReferenceKernelReducer(VCLKernelReducer):
    """The per-group kernel reducer of 3.15: every group verifies each of
    its pairs afresh."""

    reduce_batch = Reducer.reduce_batch

    def reduce(self, key, values, context):
        if len(values) < 2:
            return
        verified = 0
        for index, value_i in enumerate(values):
            entity_i = value_i.entity
            for value_j in values[index + 1:]:
                entity_j = value_j.entity
                if entity_i.id == entity_j.id:
                    continue
                verified += 1
                similarity = interned_similarity(self.measure, entity_i,
                                                 entity_j, value_i.uni,
                                                 value_j.uni)
                if similarity >= self.threshold:
                    yield (canonical_pair(entity_i.id, entity_j.id), similarity)
        if verified:
            context.increment("vcl/pairs_verified", verified)


class ReferenceDeduplicationReducer(DeduplicationReducer):
    """The per-group deduplication reducer of 3.15, sized by the walker."""

    output_record_bytes = None
    reduce_batch = Reducer.reduce_batch

    def reduce(self, key, values, context):
        context.increment("vcl/duplicate_results", max(0, len(values) - 1))
        first, second = key
        yield SimilarPair(first, second, values[0])


class ReferenceElementFrequencyReducer(ElementFrequencyReducer):
    """The per-group frequency reducer of 3.15, sized by the walker."""

    output_record_bytes = None
    reduce_batch = Reducer.reduce_batch

    def reduce(self, key, values, context):
        yield (key, sum(values))


class ReferenceElementFrequencyCombiner(ElementFrequencyCombiner):
    """The frequency combiner of 3.15: the generic summing generator."""

    combine = SummingCombiner.combine


def recorded_vcl_join(multisets, spec, backend, reducers, combiner):
    """The VCL join of ``spec`` with ``reducers`` (kernel, deduplication,
    frequency) and ``combiner`` in its jobs, and every reduce task's output
    records and per-group counts, in task order."""
    tasks = []

    def recording(cls, job):
        class Recording(cls):
            def reduce_batch(self, groups, context):
                output, counts = super().reduce_batch(groups, context)
                tasks.append((job, list(output), list(counts)))
                return output, counts
        return Recording

    kernel_reducer, dedup_reducer, frequency_reducer = reducers
    with mock.patch.multiple(
            kernel, VCLKernelReducer=recording(kernel_reducer, "kernel"),
            DeduplicationReducer=recording(dedup_reducer, "dedup"),
            ElementFrequencyReducer=recording(frequency_reducer, "frequency"),
            ElementFrequencyCombiner=combiner):
        with SimilarityEngine(backend=backend) as engine:
            result = engine.run(spec, multisets)
    return result, tasks


class TestBatchReducers:
    @given(multisets=vcl_corpora(),
           measure=st.sampled_from(list_measures(supported_only=True)
                                   + [SharedElements()]),
           order=st.sampled_from(["frequency", "hash"]),
           groups=st.sampled_from([None, 1, 4]),
           backend=st.sampled_from(["serial", "disk@4096"]),
           pick=st.integers(min_value=0))
    @settings(max_examples=150, deadline=None)
    # m0 and m1 share three prefix elements, so their pair meets in three
    # groups, and m2 meets each of them in one or two.
    @example(multisets=[Multiset("m0", {"a": 1, "b": 2, "c": 1}),
                        Multiset("m1", {"a": 1, "b": 1, "c": 1, "d": 1}),
                        Multiset("m2", {"b": 1, "d": 3})],
             measure="ruzicka", order="frequency", groups=None,
             backend="serial", pick=0)
    def test_batch_reducers_equal_the_per_group_reference(
            self, multisets, measure, order, groups, backend, pick):
        """Every reduce task's output records in order and per-group counts,
        every counter and every ``JobStats`` field equal the per-group
        reducers', at a threshold some pair of the corpus reaches exactly.

        Scratch copies that emit only a pair's first occurrence, count
        ``vcl/pairs_verified`` on memo misses only, key the memo on
        ``id_i`` alone, or size a deduplicated pair without its similarity
        fail here."""
        resolved = get_measure(measure) if isinstance(measure, str) else measure
        achieved = sorted({pair.similarity for pair in
                           all_pairs_exact(multisets, resolved, 1e-9)})
        threshold = achieved[pick % len(achieved)] if achieved else 0.5
        spec = JoinSpec(measure=measure, threshold=threshold, algorithm="vcl",
                        vcl_element_order=order,
                        vcl_super_element_groups=groups)
        chosen = (get_backend("disk", memory_budget_bytes=4096)
                  if backend == "disk@4096" else backend)
        result, tasks = recorded_vcl_join(
            multisets, spec, chosen,
            (VCLKernelReducer, DeduplicationReducer, ElementFrequencyReducer),
            ElementFrequencyCombiner)
        expected, expected_tasks = recorded_vcl_join(
            multisets, spec, chosen,
            (ReferenceKernelReducer, ReferenceDeduplicationReducer,
             ReferenceElementFrequencyReducer),
            ReferenceElementFrequencyCombiner)
        assert tasks == expected_tasks
        assert result.pairs == expected.pairs
        assert result.counters() == expected.counters()
        assert result.simulated_seconds == expected.simulated_seconds
        assert [repr(stats) for stats in result.pipeline.job_stats] == [
            repr(stats) for stats in expected.pipeline.job_stats]

    @pytest.mark.parametrize("ids", [
        ["a", "bcd", ""],
        [0, 7, -12],
        [(1,), ("x", 2), (1, (2, "y"))],
        ["a", 3, (1, "b"), 2.5, None, True],
    ], ids=["str", "int", "tuple", "mixed"])
    def test_declared_output_sizes_are_the_walkers(self, ids):
        """The deduplication and frequency reducers size each identifier or
        element once; the walker over each whole record says the same."""
        pairs = [SimilarPair(first, second, 0.5) for first in ids
                 for second in ids]
        assert DeduplicationReducer().output_record_bytes(pairs) == [
            walk_record_bytes(pair) for pair in pairs]
        counts = [(element, 3) for element in ids]
        assert ElementFrequencyReducer().output_record_bytes(counts) == [
            walk_record_bytes(record) for record in counts]
