"""Unit and property tests for the Nominal Similarity Measures."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import MeasureNotApplicableError, UnknownMeasureError
from repro.core.interning import intern_corpus
from repro.core.multiset import Multiset
from repro.similarity.base import PartialKind, validate_threshold
from repro.similarity.exact import compute_similarity
from repro.similarity.kernels import interned_similarity
from repro.similarity.measures import RuzickaSimilarity
from repro.similarity.registry import get_measure, list_measures, register_measure

A = Multiset("a", {"x": 3, "y": 2, "z": 1})
B = Multiset("b", {"x": 1, "y": 2, "w": 4})
# min-sums: x -> 1, y -> 2 => intersection 3; |A| = 6, |B| = 7.


def multiset_strategy(identifier: str, alphabet: str = "e"):
    return st.dictionaries(
        st.sampled_from([f"{alphabet}{i}" for i in range(10)]),
        st.integers(min_value=1, max_value=5),
        min_size=1, max_size=8,
    ).map(lambda counts: Multiset(identifier, counts))


class TestKnownValues:
    def test_ruzicka(self):
        assert get_measure("ruzicka").similarity(A, B) == pytest.approx(3 / 10)

    def test_jaccard_on_underlying_sets(self):
        # U(A) = {x, y, z}, U(B) = {x, y, w}: intersection 2, union 4.
        assert get_measure("jaccard").similarity(A, B) == pytest.approx(0.5)

    def test_dice_multiset(self):
        assert get_measure("dice").similarity(A, B) == pytest.approx(2 * 3 / 13)

    def test_set_dice(self):
        assert get_measure("set_dice").similarity(A, B) == pytest.approx(2 * 2 / 6)

    def test_cosine_multiset(self):
        assert get_measure("cosine").similarity(A, B) == pytest.approx(3 / (6 * 7) ** 0.5)

    def test_set_cosine(self):
        assert get_measure("set_cosine").similarity(A, B) == pytest.approx(2 / 3)

    def test_vector_cosine(self):
        dot = 3 * 1 + 2 * 2
        norm_a = (9 + 4 + 1) ** 0.5
        norm_b = (1 + 4 + 16) ** 0.5
        assert get_measure("vector_cosine").similarity(A, B) == pytest.approx(
            dot / (norm_a * norm_b))

    def test_overlap(self):
        assert get_measure("overlap").similarity(A, B) == pytest.approx(3 / 6)

    def test_set_overlap(self):
        assert get_measure("set_overlap").similarity(A, B) == pytest.approx(2 / 3)

    def test_direct_ruzicka_matches_rewritten_form(self):
        assert get_measure("direct_ruzicka").similarity(A, B) == pytest.approx(
            get_measure("ruzicka").similarity(A, B))

    @pytest.mark.parametrize("name", list_measures())
    @settings(max_examples=20, deadline=None)
    @given(left=multiset_strategy("l", "x"), right=multiset_strategy("r", "y"))
    def test_a_disjoint_pair_scores_exactly_zero(self, name, left, right):
        # So a union of disjoint corpora joins to the union of their answers.
        measure, pair = get_measure(name), (left, right)
        interned = intern_corpus(pair)[1]
        for i, j in ((0, 1), (1, 0)):
            assert compute_similarity(measure, pair[i], pair[j]) == 0.0
            if not measure.requires_disjunctive:  # no kernel path
                assert interned_similarity(measure, interned[i], interned[j]) == 0.0

    def test_empty_multiset_similarity_is_zero(self):
        empty = Multiset("empty", {})
        for name in list_measures(supported_only=True):
            assert get_measure(name).similarity(empty, A) == 0.0


class TestDecomposition:
    def test_ruzicka_partials(self):
        measure = get_measure("ruzicka")
        assert measure.unilateral(A) == (6.0,)
        assert measure.unilateral(B) == (7.0,)
        assert measure.conjunctive(A, B) == (3.0,)
        assert measure.combine((6.0,), (7.0,), (3.0,)) == pytest.approx(0.3)

    def test_jaccard_partials_use_underlying_sets(self):
        measure = get_measure("jaccard")
        assert measure.unilateral(A) == (3.0,)
        assert measure.conjunctive(A, B) == (2.0,)

    def test_vector_cosine_partials(self):
        measure = get_measure("vector_cosine")
        assert measure.unilateral(A) == (14.0,)
        assert measure.conjunctive(A, B) == (7.0,)

    def test_descriptors_have_no_disjunctive_for_supported(self):
        for name in list_measures(supported_only=True):
            kinds = {d.kind for d in get_measure(name).partial_descriptors()}
            assert PartialKind.DISJUNCTIVE not in kinds

    def test_direct_ruzicka_declares_disjunctive(self):
        kinds = {d.kind for d in get_measure("direct_ruzicka").partial_descriptors()}
        assert PartialKind.DISJUNCTIVE in kinds

    def test_check_supported(self):
        get_measure("ruzicka").check_supported()
        with pytest.raises(MeasureNotApplicableError):
            get_measure("direct_ruzicka").check_supported()

    def test_direct_ruzicka_combine_not_implemented(self):
        with pytest.raises(NotImplementedError):
            get_measure("direct_ruzicka").combine((), (), (1.0,))

    def test_effective_multiplicity(self):
        assert get_measure("jaccard").effective_multiplicity(5) == 1.0
        assert get_measure("ruzicka").effective_multiplicity(5) == 5.0
        assert get_measure("ruzicka").effective_multiplicity(0) == 0.0


class TestRegistry:
    def test_list_contains_expected_names(self):
        names = list_measures()
        for expected in ("ruzicka", "jaccard", "dice", "cosine", "vector_cosine"):
            assert expected in names

    def test_supported_excludes_disjunctive(self):
        assert "direct_ruzicka" not in list_measures(supported_only=True)
        assert "direct_ruzicka" in list_measures()

    def test_get_unknown_raises(self):
        with pytest.raises(UnknownMeasureError):
            get_measure("no-such-measure")

    def test_get_instance_passthrough(self):
        measure = RuzickaSimilarity()
        assert get_measure(measure) is measure

    def test_register_duplicate_rejected(self):
        with pytest.raises(UnknownMeasureError):
            register_measure(RuzickaSimilarity())

    def test_register_replace(self):
        register_measure(RuzickaSimilarity(), replace=True)
        assert get_measure("ruzicka").name == "ruzicka"

    def test_list_measures_sorted(self):
        for names in (list_measures(), list_measures(supported_only=True)):
            assert names == sorted(names)


class TestThresholdValidation:
    def test_valid(self):
        assert validate_threshold(0.5) == 0.5
        assert validate_threshold(1.0) == 1.0

    @pytest.mark.parametrize("value", [0.0, -0.1, 1.5, float("nan")])
    def test_invalid(self, value):
        with pytest.raises(ValueError):
            validate_threshold(value)


class TestMeasureProperties:
    @settings(max_examples=50, deadline=None)
    @given(multiset_strategy("a"), multiset_strategy("b"),
           st.sampled_from(["ruzicka", "jaccard", "dice", "cosine",
                            "vector_cosine", "overlap", "set_dice", "set_cosine"]))
    def test_symmetry_and_range(self, first, second, name):
        measure = get_measure(name)
        value = measure.similarity(first, second)
        assert value == pytest.approx(measure.similarity(second, first))
        assert 0.0 <= value <= 1.0 + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(multiset_strategy("a"),
           st.sampled_from(["ruzicka", "jaccard", "dice", "cosine",
                            "vector_cosine", "overlap"]))
    def test_self_similarity_is_one(self, multiset, name):
        assert get_measure(name).similarity(multiset, multiset) == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(multiset_strategy("a"), multiset_strategy("b"))
    def test_direct_and_rewritten_ruzicka_agree(self, first, second):
        assert get_measure("direct_ruzicka").similarity(first, second) == pytest.approx(
            get_measure("ruzicka").similarity(first, second))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12))
    def test_uni_merge_matches_bulk_computation(self, multiplicities):
        measure = get_measure("vector_cosine")
        accumulator = measure.uni_zero()
        for multiplicity in multiplicities:
            accumulator = measure.uni_merge(
                accumulator, measure.uni_from_multiplicity(float(multiplicity)))
        expected = sum(m * m for m in multiplicities)
        assert accumulator == (pytest.approx(expected),)


class TestRegistryCaseInsensitivity:
    def test_lookup_ignores_case(self):
        assert get_measure("Ruzicka") is get_measure("ruzicka")
        assert get_measure("RUZICKA") is get_measure("ruzicka")
        assert get_measure("Vector_Cosine") is get_measure("vector_cosine")

    def test_error_lists_known_measures(self):
        with pytest.raises(UnknownMeasureError) as excinfo:
            get_measure("no-such-measure")
        message = str(excinfo.value)
        assert "known measures" in message
        for name in ("ruzicka", "jaccard", "vector_cosine"):
            assert name in message


class TestSimilarityUpperBounds:
    def test_ruzicka_bound_formula(self):
        measure = get_measure("ruzicka")
        # Uni = (|Mi|,); conj bound = min => bound = min / (a + b - min).
        assert measure.similarity_upper_bound((4.0,), (6.0,)) == pytest.approx(4 / 6)

    def test_vector_cosine_bound_is_one(self):
        measure = get_measure("vector_cosine")
        assert measure.similarity_upper_bound((9.0,), (16.0,)) == pytest.approx(1.0)

    def test_default_bound_is_one(self):
        class Unbounded(RuzickaSimilarity):
            name = "unbounded-test"

            def conj_upper_bound(self, uni_i, uni_j):
                return None

        assert Unbounded().similarity_upper_bound((4.0,), (6.0,)) == 1.0
