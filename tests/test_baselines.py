"""Tests for the sequential baseline algorithms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.inverted_index import InvertedIndexJoin
from repro.baselines.ppjoin import PPJoin
from repro.core.multiset import Multiset
from repro.similarity.exact import all_pairs_exact, pair_dictionary
from tests.conftest import make_random_multisets


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
