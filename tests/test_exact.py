"""Tests for the exact in-memory evaluation helpers."""

from __future__ import annotations

import pytest

from repro.core.multiset import Multiset
from repro.similarity.exact import (
    all_pairs_exact,
    compute_similarity,
    pair_dictionary,
)


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
