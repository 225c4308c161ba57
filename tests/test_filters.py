"""Every filter the exact joins trust, held to the one rule: never drop a pair
the final ``similarity >= t`` test would keep.

The properties run per supported measure, at thresholds drawn from the
similarities the corpus actually achieves (where a filter rounding one ulp
the wrong way loses a pair) as well as at round values:

* ``similarity_upper_bound`` never falls below the similarity;
* a pair at or above ``t`` shares a prefix key (``PrefixFilter.cut``) under
  a random total order, with and without super-element grouping;
* every exact algorithm and the served ``SimilarityIndex.neighbours()``
  agree with the oracle, and so does a ``JoinView`` after each batch of
  deltas.

The regression tests pin, at the engine front door, the two cases that
first showed filters rounding past the threshold and a vector cosine that
rounded above 1.0.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import JoinSpec, JoinView, Multiset, join
from repro.core.records import canonical_pair
from repro.engine.spec import ENGINE_ALGORITHMS
from repro.mapreduce.partitioner import stable_hash
from repro.serving.api import QueryRequest
from repro.serving.index import SimilarityIndex
from repro.similarity.registry import get_measure, list_measures
from repro.vcl.grouping import SuperElementGrouping
from repro.vcl.prefix import PrefixFilter
from tests.conftest import assert_matches_oracle, make_random_multisets

ROUND_THRESHOLDS = (0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9,
                    0.95, 1.0)

MEASURES = list_measures(supported_only=True)

ELEMENTS = [f"e{index}" for index in range(12)]

#: Multisets with multiplicities large enough for float rounding to show.
MULTIPLICITIES = st.dictionaries(st.sampled_from(ELEMENTS),
                                 st.integers(min_value=1, max_value=60),
                                 min_size=1, max_size=8)


class FilterCell:
    """A drawn corpus and a threshold for one measure."""

    def __init__(self, measure: str, corpus: list[Multiset], threshold: float) -> None:
        self.measure = get_measure(measure)
        self.corpus = corpus
        self.threshold = threshold

    def pairs(self):
        """Every unordered pair of the corpus."""
        for index, first in enumerate(self.corpus):
            for second in self.corpus[index + 1:]:
                yield first, second

    def __repr__(self) -> str:
        return (f"FilterCell({self.measure.name!r}, t={self.threshold!r}, "
                f"{[dict(multiset.items()) for multiset in self.corpus]})")


@st.composite
def filter_cells(draw, measure: str) -> FilterCell:
    """A small corpus (sets or multisets) and a threshold it achieves or a
    round one."""
    corpus = make_random_multisets(
        draw(st.integers(min_value=2, max_value=8)),
        alphabet_size=draw(st.integers(min_value=3, max_value=14)),
        max_elements=draw(st.integers(min_value=1, max_value=10)),
        max_multiplicity=draw(st.sampled_from((1, 4))),
        seed=draw(st.integers(min_value=0, max_value=10_000)))
    similarity = get_measure(measure).similarity
    achieved = sorted({value for index, first in enumerate(corpus)
                       for second in corpus[index + 1:]
                       if 0.0 < (value := similarity(first, second)) <= 1.0})
    threshold = draw(st.sampled_from(achieved + list(ROUND_THRESHOLDS)))
    return FilterCell(measure, corpus, threshold)


@pytest.mark.parametrize("measure", MEASURES)
class TestFilterSoundness:
    @given(data=st.data())
    def test_upper_bound_never_below_similarity(self, measure, data):
        cell = data.draw(filter_cells(measure))
        bound = cell.measure.similarity_upper_bound
        for first, second in cell.pairs():
            assert (bound(cell.measure.unilateral(first), cell.measure.unilateral(second))
                    >= cell.measure.similarity(first, second))

    @given(counts=MULTIPLICITIES, changed=st.dictionaries(
        st.sampled_from(ELEMENTS), st.integers(min_value=1, max_value=60),
        max_size=3))
    @example(counts={"e0": 29, "e1": 18, "e2": 47, "e3": 15, "e4": 38, "e5": 7},
             changed={})
    def test_similarity_stays_between_zero_and_one(self, measure, counts, changed):
        # Large multiplicities make the float cosine of a vector with
        # itself round to either side of 1.0.
        similarity = get_measure(measure).similarity
        first = Multiset("A", counts)
        for second in (first.with_id("B"), Multiset("B", {**counts, **changed})):
            assert 0.0 <= similarity(first, second) <= 1.0

    @given(data=st.data())
    def test_similar_pairs_share_a_prefix_key(self, measure, data):
        cell = data.draw(filter_cells(measure))
        salt = data.draw(st.text(max_size=4))
        num_groups = data.draw(st.integers(min_value=1, max_value=6))

        def rank(element) -> tuple:
            return (stable_hash(element, salt=salt), repr(element))

        for grouping in (None, SuperElementGrouping(num_groups)):
            prefixes = PrefixFilter(cell.corpus, rank, cell.measure, cell.threshold,
                                    grouping=grouping)
            for first, second in cell.pairs():
                if cell.measure.similarity(first, second) < cell.threshold:
                    continue
                shared = (set(prefixes.cut(prefixes.rank(first)))
                          & set(prefixes.cut(prefixes.rank(second))))
                assert shared, (first.id, second.id, grouping)

    @given(data=st.data())
    def test_exact_algorithms_and_the_index_match_the_oracle(self, measure, data):
        cell = data.draw(filter_cells(measure))
        for algorithm in ENGINE_ALGORITHMS:
            result = join(cell.corpus, measure=measure, threshold=cell.threshold,
                          algorithm=algorithm, sharding_threshold=4)
            assert_matches_oracle(result.pairs, cell.corpus, measure, cell.threshold)
        index = SimilarityIndex(measure)
        index.bulk_load(cell.corpus)
        served = {canonical_pair(multiset.id, match.multiset_id): match.similarity
                  for multiset in cell.corpus
                  for match in index.neighbours(multiset.id, cell.threshold)}
        assert_matches_oracle(served, cell.corpus, measure, cell.threshold)

    @given(data=st.data())
    def test_view_deltas_match_the_oracle(self, measure, data):
        cell = data.draw(filter_cells(measure))
        first, last = cell.corpus[0], cell.corpus[-1]
        view = JoinView(JoinSpec(measure=measure, threshold=cell.threshold),
                        cell.corpus[:-1])
        assert_matches_oracle(view.pairs(), cell.corpus[:-1], measure, cell.threshold)
        view.upsert(last)
        assert_matches_oracle(view.pairs(), cell.corpus, measure, cell.threshold)
        view.delete(first.id)
        assert_matches_oracle(view.pairs(), cell.corpus[1:], measure, cell.threshold)


class TestPairsAtTheThreshold:
    """Pairs whose similarity equals ``t``, where a filter formula computed
    apart from ``combine`` rounds past the threshold."""

    @pytest.mark.parametrize("algorithm", ENGINE_ALGORITHMS)
    def test_dice_nine_and_six_elements_at_point_eight(self, algorithm):
        # Dice = 2 * 6 / (9 + 6) rounds to 0.8, while the float size bound
        # 0.8 / 1.2 * 9 rounds to 6.000000000000001, above B's size.
        corpus = [Multiset("A", {f"x{i}": 1 for i in range(9)}),
                  Multiset("B", {f"x{i}": 1 for i in range(6)})]
        result = join(corpus, measure="dice", threshold=0.8, algorithm=algorithm)
        assert [pair.pair for pair in result.pairs] == [("A", "B")]
        assert result.pairs[0].similarity == 0.8

    @pytest.mark.parametrize("algorithm", ENGINE_ALGORITHMS)
    def test_ruzicka_four_of_ten_at_point_four(self, algorithm):
        # Ruzicka = 4 / (4 + 10 - 4) rounds to 0.4, while the float minimum
        # overlap 0.4 / 1.4 * 14 rounds to 4.000000000000001, above 4.
        corpus = [Multiset("A", {"x0": 2, "x3": 2}),
                  Multiset("B", {"x0": 3, "x1": 2, "x2": 3, "x3": 2})]
        result = join(corpus, measure="ruzicka", threshold=0.4, algorithm=algorithm)
        assert [pair.pair for pair in result.pairs] == [("A", "B")]
        assert result.pairs[0].similarity == 0.4

    @pytest.mark.parametrize("algorithm", ENGINE_ALGORITHMS)
    def test_vector_cosine_of_identical_multisets_is_one(self, algorithm):
        # The float dot product over the product of the two norms rounds to
        # 1.0000000000000002 for this vector; the score is at most 1.0.
        contents = {"e0": 29, "e1": 18, "e2": 47, "e3": 15, "e4": 38, "e5": 7}
        corpus = [Multiset("A", contents), Multiset("B", contents)]
        result = join(corpus, measure="vector_cosine", threshold=1.0,
                      algorithm=algorithm)
        assert [(pair.pair, pair.similarity) for pair in result.pairs] == [
            (("A", "B"), 1.0)]
        index = SimilarityIndex("vector_cosine")
        index.bulk_load(corpus)
        served = index.query(QueryRequest.threshold(corpus[0].with_id("q"), 1.0))
        assert [(match.multiset_id, match.similarity) for match in served] == [
            ("A", 1.0), ("B", 1.0)]
