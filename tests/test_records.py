"""Unit and property tests for the pipeline record types."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multiset import Multiset
from repro.core.records import (
    InputTuple,
    SimilarPair,
    assemble_multisets,
    canonical_pair,
    explode_multisets,
)


class TestInputTuple:
    def test_valid(self):
        record = InputTuple("ip", "cookie", 3)
        assert record.multiset_id == "ip"
        assert record.multiplicity == 3

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            InputTuple("ip", "cookie", 0)

    def test_ordering_is_total(self):
        records = [InputTuple("b", "x", 1), InputTuple("a", "y", 2)]
        assert sorted(records)[0].multiset_id == "a"


class TestSimilarPair:
    def test_make_canonicalises(self):
        pair = SimilarPair.make("z", "a", 0.7)
        assert pair.pair == ("a", "z")
        assert pair.similarity == 0.7

    def test_canonical_pair_with_mixed_types(self):
        assert canonical_pair(2, 10) == (2, 10)
        assert canonical_pair("b", "a") == ("a", "b")
        mixed = canonical_pair("x", 5)
        assert set(mixed) == {"x", 5}


class TestExplodeAssemble:
    def test_explode(self):
        records = explode_multisets([Multiset("m", {"a": 2, "b": 1})])
        assert sorted((r.multiset_id, r.element, r.multiplicity) for r in records) == [
            ("m", "a", 2), ("m", "b", 1)]

    def test_assemble_sums_duplicates(self):
        records = [InputTuple("m", "a", 1), InputTuple("m", "a", 2)]
        assembled = assemble_multisets(records)
        assert assembled["m"].counts() == {"a": 3}

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                        st.integers(min_value=1, max_value=5),
                        min_size=1, max_size=4),
        min_size=1, max_size=6))
    def test_roundtrip(self, count_dicts):
        multisets = [Multiset(f"m{i}", counts) for i, counts in enumerate(count_dicts)]
        assembled = assemble_multisets(explode_multisets(multisets))
        assert assembled == {m.id: m for m in multisets}
