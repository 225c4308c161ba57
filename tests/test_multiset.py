"""Unit and property tests for the Multiset data model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import InvalidMultisetError
from repro.core.multiset import MAX_CARDINALITY, Multiset
from repro.serving.api import QueryRequest
from repro.serving.index import SimilarityIndex


def multiset_strategy(identifier: str = "m"):
    """Hypothesis strategy generating small multisets."""
    return st.dictionaries(
        st.sampled_from([f"e{i}" for i in range(12)]),
        st.integers(min_value=1, max_value=6),
        min_size=1, max_size=8,
    ).map(lambda counts: Multiset(identifier, counts))


class TestConstruction:
    def test_from_mapping(self):
        multiset = Multiset("ip1", {"a": 2, "b": 1})
        assert multiset.id == "ip1"
        assert multiset["a"] == 2
        assert multiset.multiplicity("b") == 1
        assert multiset.multiplicity("missing") == 0

    def test_from_pairs(self):
        multiset = Multiset("ip1", [("a", 2), ("b", 3)])
        assert multiset.cardinality == 5

    def test_from_iterable_counts_occurrences(self):
        multiset = Multiset.from_iterable("ip", ["a", "b", "a", "a"])
        assert multiset["a"] == 3
        assert multiset["b"] == 1

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(InvalidMultisetError):
            Multiset("ip", {"a": 0})

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(InvalidMultisetError):
            Multiset("ip", {"a": -1})

    def test_non_integer_multiplicity_rejected(self):
        with pytest.raises(InvalidMultisetError):
            Multiset("ip", {"a": 1.5})

    def test_boolean_multiplicity_rejected(self):
        with pytest.raises(InvalidMultisetError):
            Multiset("ip", {"a": True})

    def test_duplicate_elements_in_pairs_rejected(self):
        with pytest.raises(InvalidMultisetError):
            Multiset("ip", [("a", 1), ("a", 2)])

    def test_cardinality_above_2_53_rejected(self):
        """Such a multiset under ``ruzicka`` used to miss its own
        threshold-1.0 query: its ``Uni`` is no longer an exact sum."""
        with pytest.raises(InvalidMultisetError, match="2\\*\\*53"):
            Multiset("ip", {"x": 2**53 + 1, "y": 1, "z": 1})
        with pytest.raises(InvalidMultisetError):
            Multiset("ip", {"x": 2**52, "y": 2**52, "z": 1})

    @pytest.mark.parametrize("measure", ["ruzicka", "dice", "cosine", "overlap"])
    def test_cardinality_at_2_53_answers_its_own_exact_query(self, measure):
        multiset = Multiset("ip", {"x": 2**53 - 2, "y": 1, "z": 1})
        assert multiset.cardinality == MAX_CARDINALITY
        index = SimilarityIndex(measure)
        index.add(multiset)
        answer = index.query(QueryRequest.threshold(multiset, 1.0))
        assert answer.ids() == ["ip"]

    def test_empty_multiset_allowed(self):
        multiset = Multiset("ip", {})
        assert multiset.cardinality == 0
        assert multiset.underlying_cardinality == 0


class TestCardinalities:
    def test_cardinality_is_sum_of_multiplicities(self):
        multiset = Multiset("ip", {"a": 2, "b": 3, "c": 1})
        assert multiset.cardinality == 6

    def test_underlying_cardinality_counts_distinct_elements(self):
        multiset = Multiset("ip", {"a": 10, "b": 1})
        assert multiset.underlying_cardinality == 2

    def test_underlying_set(self):
        multiset = Multiset("ip", {"a": 2, "b": 1})
        assert multiset.underlying_set == frozenset({"a", "b"})

    def test_mapping_protocol(self):
        multiset = Multiset("ip", {"a": 2, "b": 1})
        assert len(multiset) == 2
        assert set(multiset) == {"a", "b"}
        assert "a" in multiset
        assert "z" not in multiset


class TestPairwiseOperations:
    def test_intersection_cardinality(self):
        first = Multiset("a", {"x": 3, "y": 1})
        second = Multiset("b", {"x": 1, "y": 4, "z": 2})
        assert first.intersection_cardinality(second) == 1 + 1

    def test_union_cardinality(self):
        first = Multiset("a", {"x": 3, "y": 1})
        second = Multiset("b", {"x": 1, "y": 4, "z": 2})
        assert first.union_cardinality(second) == 3 + 4 + 2

    def test_underlying_intersection(self):
        first = Multiset("a", {"x": 3, "y": 1})
        second = Multiset("b", {"x": 1, "z": 2})
        assert first.underlying_intersection_cardinality(second) == 1

    def test_common_elements(self):
        first = Multiset("a", {"x": 3, "y": 1})
        second = Multiset("b", {"y": 1, "z": 2})
        assert first.common_elements(second) == ["y"]

    def test_operations_are_symmetric(self):
        first = Multiset("a", {"x": 3, "y": 1, "w": 2})
        second = Multiset("b", {"x": 1, "z": 2})
        assert (first.intersection_cardinality(second)
                == second.intersection_cardinality(first))
        assert first.union_cardinality(second) == second.union_cardinality(first)


class TestTransformations:
    def test_restrict(self):
        multiset = Multiset("ip", {"a": 2, "b": 1, "c": 4})
        restricted = multiset.restrict({"a", "c"})
        assert restricted.counts() == {"a": 2, "c": 4}
        assert restricted.id == "ip"

    def test_scaled(self):
        multiset = Multiset("ip", {"a": 2})
        assert multiset.scaled(3).counts() == {"a": 6}

    def test_scaled_rejects_bad_factor(self):
        with pytest.raises(InvalidMultisetError):
            Multiset("ip", {"a": 2}).scaled(0)

    def test_with_id(self):
        multiset = Multiset("ip", {"a": 2})
        renamed = multiset.with_id("other")
        assert renamed.id == "other"
        assert renamed.counts() == multiset.counts()


class TestEqualityAndRepr:
    def test_equality_includes_id(self):
        assert Multiset("a", {"x": 1}) != Multiset("b", {"x": 1})
        assert Multiset("a", {"x": 1}) == Multiset("a", {"x": 1})

    def test_hashable(self):
        collection = {Multiset("a", {"x": 1}), Multiset("a", {"x": 1})}
        assert len(collection) == 1

    def test_repr_mentions_id_and_sizes(self):
        text = repr(Multiset("ip9", {"a": 2, "b": 1}))
        assert "ip9" in text
        assert "|M|=3" in text

    def test_estimated_bytes_positive_and_cached(self):
        multiset = Multiset("ip", {"abc": 2, "de": 1})
        first = multiset.estimated_bytes()
        assert first > 0
        assert multiset.estimated_bytes() == first


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(multiset_strategy("a"), multiset_strategy("b"))
    def test_inclusion_exclusion(self, first, second):
        assert (first.intersection_cardinality(second)
                + first.union_cardinality(second)
                == first.cardinality + second.cardinality)

    @settings(max_examples=60, deadline=None)
    @given(multiset_strategy("a"), multiset_strategy("b"))
    def test_intersection_bounded_by_cardinalities(self, first, second):
        intersection = first.intersection_cardinality(second)
        assert 0 <= intersection <= min(first.cardinality, second.cardinality)

    @settings(max_examples=60, deadline=None)
    @given(multiset_strategy("a"))
    def test_self_operations(self, multiset):
        assert multiset.intersection_cardinality(multiset) == multiset.cardinality
        assert multiset.union_cardinality(multiset) == multiset.cardinality
