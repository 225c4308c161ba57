"""Tests for the exact in-memory evaluation helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multiset import Multiset
from repro.similarity.exact import (
    all_pairs_exact,
    all_pairs_inverted_index,
    compute_similarity,
    pair_dictionary,
)
from repro.similarity.measures import RuzickaSimilarity
from tests.conftest import make_random_multisets


class TestComputeSimilarity:
    def test_by_name(self):
        first = Multiset("a", {"x": 1})
        second = Multiset("b", {"x": 1, "y": 1})
        assert compute_similarity("jaccard", first, second) == pytest.approx(0.5)


class TestAllPairsExact:
    def test_simple_collection(self, overlapping_multisets):
        pairs = all_pairs_exact(overlapping_multisets, "ruzicka", 0.5)
        indexed = pair_dictionary(pairs)
        assert indexed[("a", "b")] == pytest.approx(1.0)
        assert ("a", "d") not in indexed

    def test_accepts_mapping_input(self, overlapping_multisets):
        as_mapping = {m.id: m for m in overlapping_multisets}
        assert all_pairs_exact(as_mapping, "ruzicka", 0.5) == all_pairs_exact(
            overlapping_multisets, "ruzicka", 0.5)

    def test_results_sorted_and_canonical(self, small_multisets):
        pairs = all_pairs_exact(small_multisets, "jaccard", 0.2)
        assert pairs == sorted(pairs)
        for pair in pairs:
            assert repr(pair.first) <= repr(pair.second)

    def test_threshold_monotonicity(self, small_multisets):
        low = all_pairs_exact(small_multisets, "ruzicka", 0.1)
        high = all_pairs_exact(small_multisets, "ruzicka", 0.6)
        assert len(high) <= len(low)
        assert {p.pair for p in high} <= {p.pair for p in low}

    def test_invalid_threshold_rejected(self, small_multisets):
        with pytest.raises(ValueError):
            all_pairs_exact(small_multisets, "ruzicka", 0.0)

    def test_pair_dictionary(self):
        pairs = all_pairs_exact(
            [Multiset("a", {"x": 1}), Multiset("b", {"x": 1})], "jaccard", 0.5)
        assert pair_dictionary(pairs) == {("a", "b"): pytest.approx(1.0)}


class TestAllPairsInvertedIndex:
    @pytest.mark.parametrize("measure", ["ruzicka", "jaccard", "dice", "cosine"])
    def test_matches_brute_force(self, small_multisets, measure):
        produced = all_pairs_inverted_index(small_multisets, measure, 0.3)
        expected = pair_dictionary(all_pairs_exact(small_multisets, measure, 0.3))
        assert produced == sorted(produced)
        assert pair_dictionary(produced).keys() == expected.keys()

    def test_stop_word_skipping_loses_only_stop_word_pairs(self):
        # "shared" is in all five multisets, "own0" only in m0 and m1.
        multisets = [Multiset(f"m{i}", {"shared": 1, f"own{i % 4}": 1})
                     for i in (0, 4, 1, 2, 3)]
        pairs = all_pairs_inverted_index(multisets, "jaccard", 0.3, 3)
        assert [pair.pair for pair in pairs] == [("m0", "m4")]
        assert len(all_pairs_inverted_index(multisets, "jaccard", 0.3)) == 10

    def test_size_filter_skips_verification(self, monkeypatch):
        # The pair shares "a", but its sizes bound Ruzicka by 1 / 5 < 0.5:
        # the size filter drops it, and a verification would raise.
        multisets = [Multiset("small", {"a": 1}),
                     Multiset("large", dict.fromkeys("abcde", 1))]
        monkeypatch.setattr(RuzickaSimilarity, "similarity", None)
        assert all_pairs_inverted_index(multisets, "ruzicka", 0.5) == []

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=5_000))
    def test_random_agreement(self, seed):
        multisets = make_random_multisets(15, alphabet_size=20, max_elements=10, seed=seed)
        produced = {p.pair for p in all_pairs_inverted_index(multisets, "ruzicka", 0.4)}
        expected = {p.pair for p in all_pairs_exact(multisets, "ruzicka", 0.4)}
        assert produced == expected

