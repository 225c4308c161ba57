"""Unit and property tests for the pipeline record types."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import join
from repro.core.exceptions import InvalidMultisetError
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

    def test_whole_number_floats_are_the_integers_they_denote(self):
        records = [InputTuple("m", "a", 2.0), InputTuple("m", "a", 1)]
        counts = assemble_multisets(records)["m"].counts()
        assert counts == {"a": 3} and type(counts["a"]) is int

    @pytest.mark.parametrize("multiplicity", [
        1.5, 0.5, float("nan"), float("inf"), True])
    def test_a_multiplicity_that_is_no_whole_number_is_rejected(self, multiplicity):
        # 1.5 used to be truncated to 1 (a different multiset, a wrong
        # similarity), 0.5 to "must be positive, got 0"; nan / inf escaped
        # as bare ValueError / OverflowError.
        records = [InputTuple("m", "a", 1), InputTuple("m", "b", multiplicity)]
        with pytest.raises(InvalidMultisetError) as caught:
            assemble_multisets(records)
        for named in ("'m'", "'b'", repr(multiplicity)):
            assert named in str(caught.value)

    def test_join_does_not_truncate_fractional_multiplicities(self):
        # Ruzicka of {x: 1.5, y: 1} and {x: 2.5, y: 1} is 2.5 / 3.5; the
        # join used to answer 2 / 3, silently, for the truncated multisets.
        records = [InputTuple("a", "x", 1.5), InputTuple("a", "y", 1),
                   InputTuple("b", "x", 2.5), InputTuple("b", "y", 1)]
        with pytest.raises(InvalidMultisetError):
            join(records, measure="ruzicka", threshold=0.1)
        whole = [InputTuple("a", "x", 1.0), InputTuple("a", "y", 1),
                 InputTuple("b", "x", 2.0), InputTuple("b", "y", 1)]
        [pair] = join(whole, measure="ruzicka", threshold=0.1).pairs
        assert pair.similarity == pytest.approx(2 / 3)

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
