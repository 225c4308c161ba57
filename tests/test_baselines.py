"""Tests for the sequential baseline algorithms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute_force import BruteForceJoin
from repro.baselines.inverted_index import InvertedIndexJoin
from repro.baselines.minhash import (
    LSHParameters,
    MinHashLSHJoin,
    derive_banding,
    estimate_similarity,
    minhash_signature,
)
from repro.baselines.ppjoin import PPJoin
from repro.baselines.sampled import SampledJoin, sample_rate_for_recall
from repro.core.exceptions import DatasetError, MeasureNotApplicableError
from repro.core.multiset import Multiset
from repro.similarity.exact import all_pairs_exact, pair_dictionary
from tests.conftest import make_random_multisets


class TestBruteForce:
    def test_matches_exact_helper(self, small_multisets):
        join = BruteForceJoin("ruzicka", 0.3)
        assert join.run(small_multisets) == all_pairs_exact(small_multisets, "ruzicka", 0.3)


class TestInvertedIndex:
    @pytest.mark.parametrize("measure", ["ruzicka", "jaccard", "dice", "cosine"])
    def test_matches_brute_force(self, small_multisets, measure):
        join = InvertedIndexJoin(measure, 0.3)
        expected = pair_dictionary(all_pairs_exact(small_multisets, measure, 0.3))
        produced = pair_dictionary(join.run(small_multisets))
        assert produced.keys() == expected.keys()

    def test_stop_word_skipping_loses_only_stop_word_pairs(self):
        multisets = [Multiset(f"m{i}", {"shared": 1, f"own{i}": 1}) for i in range(5)]
        join = InvertedIndexJoin("jaccard", 0.3, stop_word_frequency=3)
        assert join.run(multisets) == []
        assert join.last_candidates == 0

    def test_candidate_counter(self, small_multisets):
        join = InvertedIndexJoin("ruzicka", 0.3)
        join.run(small_multisets)
        assert join.last_candidates > 0

    def test_candidate_counter_counts_verified_pairs(self):
        # The pair shares "a", but its sizes bound Ruzicka by 1 / 5 < 0.5:
        # the size filter drops it before verification.
        multisets = [Multiset("small", {"a": 1}),
                     Multiset("large", {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1})]
        join = InvertedIndexJoin("ruzicka", 0.5)
        assert join.run(multisets) == []
        assert join.last_candidates == 0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=5_000))
    def test_random_agreement(self, seed):
        multisets = make_random_multisets(15, alphabet_size=20, max_elements=10, seed=seed)
        produced = {p.pair for p in InvertedIndexJoin("ruzicka", 0.4).run(multisets)}
        expected = {p.pair for p in all_pairs_exact(multisets, "ruzicka", 0.4)}
        assert produced == expected


class TestPPJoin:
    @pytest.mark.parametrize("measure", ["ruzicka", "jaccard", "dice", "cosine"])
    @pytest.mark.parametrize("threshold", [0.3, 0.6, 0.9])
    def test_matches_brute_force(self, small_multisets, measure, threshold):
        join = PPJoin(measure, threshold)
        expected = pair_dictionary(all_pairs_exact(small_multisets, measure, threshold))
        produced = pair_dictionary(join.run(small_multisets))
        assert produced.keys() == expected.keys()
        for key in produced:
            assert produced[key] == pytest.approx(expected[key])

    def test_prunes_candidates_compared_to_inverted_index(self, small_multisets):
        inverted = InvertedIndexJoin("ruzicka", 0.7)
        prefix = PPJoin("ruzicka", 0.7)
        inverted.run(small_multisets)
        prefix.run(small_multisets)
        assert prefix.last_candidates <= inverted.last_candidates

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=5_000), st.sampled_from([0.3, 0.5, 0.8]))
    def test_random_agreement(self, seed, threshold):
        multisets = make_random_multisets(15, alphabet_size=18, max_elements=10, seed=seed)
        produced = {p.pair for p in PPJoin("ruzicka", threshold).run(multisets)}
        expected = {p.pair for p in all_pairs_exact(multisets, "ruzicka", threshold)}
        assert produced == expected


class TestMinHash:
    def test_signature_deterministic(self):
        multiset = Multiset("m", {"a": 2, "b": 1})
        assert minhash_signature(multiset, 16, True) == minhash_signature(multiset, 16, True)

    def test_identical_multisets_have_identical_signatures(self):
        first = Multiset("a", {"x": 2, "y": 1})
        second = Multiset("b", {"x": 2, "y": 1})
        assert (minhash_signature(first, 32, True)
                == minhash_signature(second, 32, True))
        assert estimate_similarity(minhash_signature(first, 32, True),
                                   minhash_signature(second, 32, True)) == 1.0

    def test_estimate_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            estimate_similarity((1, 2), (1,))

    def test_signature_validation(self):
        with pytest.raises(ValueError):
            minhash_signature(Multiset("m", {"a": 1}), 0, True)

    def test_lsh_parameters(self):
        params = LSHParameters(num_bands=4, rows_per_band=2)
        assert params.num_hashes == 8
        assert params.collision_probability(1.0) == pytest.approx(1.0)
        assert params.collision_probability(0.0) == pytest.approx(0.0)
        with pytest.raises(ValueError):
            LSHParameters(num_bands=0)

    def test_unsupported_measure_rejected(self):
        with pytest.raises(MeasureNotApplicableError):
            MinHashLSHJoin(measure="vector_cosine")

    def test_finds_near_duplicates(self):
        base = {f"e{i}": 1 for i in range(40)}
        nearly = dict(base)
        nearly["extra"] = 1
        multisets = [Multiset("orig", base), Multiset("copy", nearly),
                     Multiset("other", {f"z{i}": 1 for i in range(40)})]
        join = MinHashLSHJoin("jaccard", 0.8, LSHParameters(8, 4), verify_exact=True)
        pairs = {p.pair for p in join.run(multisets)}
        assert ("copy", "orig") in pairs
        assert all("other" not in pair for pair in pairs)

    def test_verify_exact_gives_exact_similarities(self):
        first = Multiset("a", {"x": 1, "y": 1})
        second = Multiset("b", {"x": 1, "y": 1, "z": 1})
        join = MinHashLSHJoin("jaccard", 0.5, LSHParameters(16, 2), verify_exact=True)
        produced = pair_dictionary(join.run([first, second]))
        assert produced[("a", "b")] == pytest.approx(2 / 3)

    def test_ruzicka_mode_uses_set_expansion(self):
        first = Multiset("a", {"x": 4})
        second = Multiset("b", {"x": 2})
        join = MinHashLSHJoin("ruzicka", 0.3, LSHParameters(16, 2), verify_exact=True)
        produced = pair_dictionary(join.run([first, second]))
        assert produced[("a", "b")] == pytest.approx(0.5)

    def test_candidate_counter_updated(self, small_multisets):
        join = MinHashLSHJoin("ruzicka", 0.5, LSHParameters(8, 2))
        join.run(small_multisets)
        assert join.last_candidates >= 0

    def test_empty_multisets_never_pair(self):
        # Regression: two empty multisets share the all-zero signature, so
        # they used to band-collide and report similarity=1.0 while the
        # exact Ruzicka similarity of two empty multisets is 0.0.
        empties = [Multiset("e1", {}), Multiset("e2", {}),
                   Multiset("full", {"x": 1, "y": 2})]
        for verify_exact in (False, True):
            join = MinHashLSHJoin("ruzicka", 0.1, LSHParameters(4, 2),
                                  verify_exact=verify_exact)
            assert join.run(empties) == []
            assert join.last_candidates == 0

    def test_empty_multisets_do_not_shadow_real_pairs(self):
        multisets = [Multiset("e", {}),
                     Multiset("a", {"x": 2, "y": 1}),
                     Multiset("b", {"x": 2, "y": 1})]
        join = MinHashLSHJoin("ruzicka", 0.9, verify_exact=True)
        pairs = {pair.pair for pair in join.run(multisets)}
        assert pairs == {("a", "b")}

    def test_duplicate_ids_rejected(self):
        # Regression: the entity dict silently kept only the last multiset
        # per id, so the join answered for a corpus nobody supplied.
        duplicated = [Multiset("m", {"x": 1}), Multiset("m", {"y": 1})]
        with pytest.raises(DatasetError, match="duplicate multiset id"):
            MinHashLSHJoin("ruzicka", 0.5).run(duplicated)

    def test_estimate_similarity_empty_signatures(self):
        assert estimate_similarity((), ()) == 0.0

    def test_collision_probability_edges(self):
        params = LSHParameters(num_bands=7, rows_per_band=3)
        assert params.collision_probability(0.0) == pytest.approx(0.0)
        assert params.collision_probability(1.0) == pytest.approx(1.0)


class TestDeriveBanding:
    @settings(max_examples=60, deadline=None)
    @given(threshold=st.floats(min_value=0.05, max_value=1.0),
           recall=st.floats(min_value=0.5, max_value=0.999))
    def test_derived_banding_meets_recall_at_threshold(self, threshold, recall):
        params = derive_banding(threshold, recall)
        assert params.collision_probability(threshold) >= recall
        assert params.num_hashes <= 256

    def test_tighter_recall_never_loosens_collision_probability(self):
        loose = derive_banding(0.5, 0.8)
        tight = derive_banding(0.5, 0.99)
        assert (tight.collision_probability(0.5)
                >= loose.collision_probability(0.5))

    def test_exactness_demands_rejected(self):
        with pytest.raises(ValueError):
            derive_banding(0.5, 1.0)
        with pytest.raises(ValueError):
            derive_banding(0.5, 0.0)

    def test_threshold_one_still_collides_surely(self):
        params = derive_banding(1.0, 0.95)
        assert params.collision_probability(1.0) == pytest.approx(1.0)


class TestSampledJoin:
    def test_pairs_are_a_subset_of_exact(self, small_multisets):
        sampled = SampledJoin("ruzicka", 0.3, recall=0.9)
        exact = {pair.pair for pair in
                 all_pairs_exact(small_multisets, "ruzicka", 0.3)}
        produced = {pair.pair for pair in sampled.run(small_multisets)}
        assert produced <= exact

    def test_deterministic_across_runs(self, small_multisets):
        first = SampledJoin("ruzicka", 0.3, recall=0.9).run(small_multisets)
        second = SampledJoin("ruzicka", 0.3, recall=0.9).run(small_multisets)
        assert first == second

    def test_recall_one_keeps_everything(self, small_multisets):
        sampled = SampledJoin("ruzicka", 0.3, recall=1.0)
        assert (sampled.run(small_multisets)
                == all_pairs_exact(small_multisets, "ruzicka", 0.3))
        assert sampled.last_sampled == len(small_multisets)

    def test_duplicate_ids_rejected(self):
        duplicated = [Multiset("m", {"x": 1}), Multiset("m", {"y": 1})]
        with pytest.raises(DatasetError, match="duplicate multiset id"):
            SampledJoin("ruzicka", 0.5, recall=0.9).run(duplicated)

    def test_sample_rate_targets_midpoint(self):
        rate = sample_rate_for_recall(0.9)
        assert rate ** 2 == pytest.approx(0.95)
        assert sample_rate_for_recall(1.0) == 1.0
        with pytest.raises(ValueError):
            sample_rate_for_recall(0.0)
