"""Tests for the shared V-SMART-Join similarity phase."""

from __future__ import annotations

import dataclasses
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import SimilarityEngine
from repro.core.exceptions import JobConfigurationError, UnknownMeasureError
from repro.core.interning import InterningContext, PairCodec
from repro.core.records import (
    JoinedTuple,
    PairContribution,
    PostingEntry,
    explode_multisets,
)
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.job import TaskContext
from repro.mapreduce.runner import LocalJobRunner
from repro.similarity.exact import pair_dictionary
from repro.similarity.kernels import (
    BOUND_GENERIC,
    BOUND_MIN_OVER_UNION,
    bound_kernel_kind,
)
from repro.similarity.registry import get_measure, list_measures, register_measure
from repro.telemetry import Metrics
from repro.vsmart.driver import JOINING_ALGORITHMS
from repro.vsmart.similarity_phase import (
    CandidateColumns,
    ChunkPairRecord,
    Similarity1Reducer,
    Similarity2Reducer,
    SimilarityPhaseConfig,
    _CandidateFilter,
    build_similarity1_job,
    build_similarity2_job,
)
from tests.conftest import assert_matches_oracle, join_grid


def joined_tuples_for(multisets, measure, interning):
    """Join Uni(Mi) to every interned element in memory (the joining phase's output)."""
    records = []
    for multiset in multisets:
        uni = measure.unilateral(multiset)
        for record in interning.intern_records(explode_multisets([multiset])):
            records.append(JoinedTuple(record.multiset_id, uni, record.element,
                                       record.multiplicity))
    return records


def run_similarity_phase(multisets, measure_name, threshold, cluster,
                         config=None):
    measure = get_measure(measure_name)
    runner = LocalJobRunner(cluster)
    interning = InterningContext.from_input_tuples(explode_multisets(multisets))
    joined = Dataset.from_records(joined_tuples_for(multisets, measure, interning))
    sim1 = runner.run(build_similarity1_job(config, pair_codec=interning.codec),
                      joined)
    sim2 = runner.run(build_similarity2_job(measure, threshold, config,
                                            pair_codec=interning.codec),
                      sim1.output)
    return sorted(interning.restore_pairs(sim2.output.records)), sim1, sim2


class TestSimilarityPhaseEndToEnd:
    @pytest.mark.parametrize("measure_name", ["ruzicka", "jaccard", "dice", "cosine",
                                              "vector_cosine"])
    def test_matches_exact_join(self, small_multisets, test_cluster, measure_name):
        threshold = 0.3
        pairs, _sim1, _sim2 = run_similarity_phase(
            small_multisets, measure_name, threshold, test_cluster)
        assert_matches_oracle(pairs, small_multisets, measure_name, threshold)

    def test_threshold_filters_pairs(self, overlapping_multisets, test_cluster):
        low, _, _ = run_similarity_phase(overlapping_multisets, "ruzicka", 0.1,
                                         test_cluster)
        high, _, _ = run_similarity_phase(overlapping_multisets, "ruzicka", 0.95,
                                          test_cluster)
        assert {p.pair for p in high} <= {p.pair for p in low}

    def test_counters_exposed(self, overlapping_multisets, test_cluster):
        _pairs, sim1, sim2 = run_similarity_phase(
            overlapping_multisets, "ruzicka", 0.5, test_cluster)
        assert sim1.stats.counters["similarity1/elements"] > 0
        assert sim2.stats.counters["similarity2/pairs_evaluated"] > 0

    def test_combiners_do_not_change_results(self, small_multisets, test_cluster):
        with_combiner, _, _ = run_similarity_phase(
            small_multisets, "ruzicka", 0.3, test_cluster,
            SimilarityPhaseConfig(use_combiners=True))
        without_combiner, _, _ = run_similarity_phase(
            small_multisets, "ruzicka", 0.3, test_cluster,
            SimilarityPhaseConfig(use_combiners=False))
        assert pair_dictionary(with_combiner).keys() == pair_dictionary(without_combiner).keys()
        for key in pair_dictionary(with_combiner):
            assert pair_dictionary(with_combiner)[key] == pytest.approx(
                pair_dictionary(without_combiner)[key])


class TestChunking:
    def test_chunked_reducer_produces_same_pairs(self, small_multisets, test_cluster):
        plain, _, _ = run_similarity_phase(small_multisets, "ruzicka", 0.3, test_cluster)
        chunked, sim1, _ = run_similarity_phase(
            small_multisets, "ruzicka", 0.3, test_cluster,
            SimilarityPhaseConfig(chunk_size=3))
        assert pair_dictionary(plain) == pair_dictionary(chunked)
        assert sim1.stats.counters.get("similarity1/chunked_elements", 0) > 0

    def test_chunked_reducer_is_streaming(self):
        reducer = Similarity1Reducer(SimilarityPhaseConfig(chunk_size=4),
                                     pair_codec=PairCodec(8))
        assert reducer.materializes_input is False
        plain = Similarity1Reducer(pair_codec=PairCodec(8))
        assert plain.materializes_input is True

    def test_chunk_pair_counts(self):
        from repro.core.records import PostingEntry
        from repro.mapreduce.job import TaskContext

        reducer = Similarity1Reducer(SimilarityPhaseConfig(chunk_size=2),
                                     pair_codec=PairCodec(5))
        postings = [PostingEntry(i, (1.0,), 1.0) for i in range(5)]
        context = TaskContext(Metrics())
        records, counts = reducer.reduce_batch([("element", postings)], context)
        records = list(records)
        assert counts == [len(records)]
        assert all(isinstance(record, ChunkPairRecord) for record in records)
        # 3 chunks (2, 2, 1) -> 3 diagonal + 3 cross pairs = 6 chunk pairs.
        assert len(records) == 6
        assert sum(1 for record in records if record.same_chunk) == 3

    def test_invalid_chunk_size(self):
        with pytest.raises(JobConfigurationError):
            SimilarityPhaseConfig(chunk_size=1)


class TestStopWordsInReducer:
    def test_stop_word_limit_drops_frequent_elements(self, test_cluster):
        from repro.core.multiset import Multiset

        multisets = [Multiset(f"m{i}", {"popular": 1, f"rare{i}": 1}) for i in range(6)]
        with_limit, sim1, _ = run_similarity_phase(
            multisets, "jaccard", 0.1, test_cluster,
            SimilarityPhaseConfig(stop_word_frequency=3))
        without_limit, _, _ = run_similarity_phase(
            multisets, "jaccard", 0.1, test_cluster)
        assert len(with_limit) < len(without_limit)
        assert sim1.stats.counters["similarity1/stop_words_dropped"] == 1

    def test_invalid_stop_word_threshold(self):
        with pytest.raises(JobConfigurationError):
            SimilarityPhaseConfig(stop_word_frequency=0)


class TestPairRecords:
    def test_pair_key_contribution_alignment(self):
        from repro.core.records import PostingEntry

        codec = PairCodec(8)
        posting_z = PostingEntry(7, (9.0,), 5.0)
        posting_a = PostingEntry(2, (4.0,), 2.0)
        reducer = Similarity1Reducer(pair_codec=codec)
        context = TaskContext(Metrics())
        output, counts = reducer.reduce_batch(
            [("x", [posting_z, posting_a]), ("y", [posting_a, posting_z])],
            context)
        [(key, contribution), other] = output
        assert key == (codec.pack(2, 7), (4.0,), (9.0,))
        assert contribution == PairContribution(2.0, 5.0)
        # Either emission order lands on the one canonical record.
        assert other == (key, contribution)
        assert counts == [1, 1]
        assert context.counters["similarity1/candidate_records"] == 2

    def test_batch_reducers_count_in_the_per_list_loops_order(self):
        """A posting list pruned before any list has a survivor counts
        ``candidates_pruned`` first, as the per-list loop did; Similarity2
        counts ``pairs_evaluated`` before ``pairs_output``."""
        from repro.core.records import PostingEntry

        codec = PairCodec(8)
        measure = get_measure("ruzicka")
        reducer = Similarity1Reducer(pair_codec=codec, measure=measure,
                                     threshold=0.9)
        context = TaskContext(Metrics())
        far = [PostingEntry(0, (1.0,), 1.0), PostingEntry(1, (9.0,), 1.0)]
        near = [PostingEntry(2, (3.0,), 3.0), PostingEntry(3, (3.0,), 3.0)]
        output, counts = reducer.reduce_batch([("a", far), ("b", near)],
                                              context)
        assert counts == [0, 1] and len(output) == 1
        assert list(context.counters.items()) == [
            ("similarity1/elements", 2), ("similarity1/candidates_pruned", 1),
            ("similarity1/candidate_records", 1)]

        second = Similarity2Reducer(measure, 0.9, pair_codec=codec)
        context = TaskContext(Metrics())
        pairs, counts = second.reduce_batch(
            [((codec.pack(0, 1), (1.0,), (9.0,)), [(1.0,)]),
             ((codec.pack(2, 3), (3.0,), (3.0,)), [(3.0,)])], context)
        assert counts == [0, 1]
        assert [(pair.first, pair.second) for pair in pairs] == [(2, 3)]
        assert list(context.counters.items()) == [
            ("similarity2/pairs_evaluated", 2), ("similarity2/pairs_output", 1)]

    def test_duplicate_multiset_in_posting_list_not_paired_with_itself(self, test_cluster):
        from repro.core.multiset import Multiset

        multisets = [Multiset("only", {"x": 2})]
        pairs, _, _ = run_similarity_phase(multisets, "ruzicka", 0.1, test_cluster)
        assert pairs == []


class TestShapesAreChecked:
    """A similarity job told its measure sizes its records by shape, and its
    first map task refuses input that does not have that shape."""

    def test_similarity1_refuses_raw_joined_tuples(self, test_cluster):
        measure = get_measure("ruzicka")
        raw = Dataset.from_records([JoinedTuple("ip", (3.0,), "cookie", 3)])
        job = build_similarity1_job(pair_codec=PairCodec(2), measure=measure)
        with pytest.raises(JobConfigurationError, match="'similarity1'.*'ip'"):
            LocalJobRunner(test_cluster).run(job, raw)
        # Told no measure, the job declares nothing and sizes what it meets.
        unsized = build_similarity1_job(pair_codec=PairCodec(2))
        assert len(LocalJobRunner(test_cluster).run(unsized, raw).output) == 0

    def test_similarity2_refuses_a_pair_key_of_another_shape(self, test_cluster):
        measure = get_measure("ruzicka")
        codec = PairCodec(2)
        two_partials = (codec.pack(0, 1), (3.0, 9.0), (2.0, 4.0))
        records = Dataset.from_records(
            [(two_partials, PairContribution(1, 1))])
        job = build_similarity2_job(measure, 0.5, pair_codec=codec)
        with pytest.raises(JobConfigurationError, match="'similarity2'"):
            LocalJobRunner(test_cluster).run(job, records)


# -- the batch path ----------------------------------------------------------


class TestCandidateColumns:
    def test_rows_are_the_candidate_records(self):
        columns = CandidateColumns()
        chunk = ChunkPairRecord(3, (), (), True)
        columns.append(((5, (2.0,), (3.0,)), PairContribution(1, 2)))
        columns.append(chunk)
        block = CandidateColumns()
        block.append(((9, (1.0,), (4.0,)), PairContribution(3, 1)))
        columns.extend(block)
        rows = [((5, (2.0,), (3.0,)), PairContribution(1, 2)), chunk,
                ((9, (1.0,), (4.0,)), PairContribution(3, 1))]
        assert list(columns) == rows
        assert [columns[index] for index in range(len(columns))] == rows
        assert columns.chunk_rows == [1]
        assert list(columns.segments()) == [(0, 1, chunk), (2, 3, None)]

    def test_a_dataset_keeps_the_columns(self):
        columns = CandidateColumns()
        columns.append(((5, (2.0,), (3.0,)), PairContribution(1, 2)))
        dataset = Dataset("candidates", columns, [1])
        assert dataset.records is columns
        assert list(dataset) == list(columns)


def min_over_union_measures() -> list[str]:
    return [name for name in list_measures(supported_only=True)
            if bound_kernel_kind(get_measure(name)) == BOUND_MIN_OVER_UNION]


postings_lists = st.lists(
    st.builds(PostingEntry, st.integers(0, 7),
              st.one_of(st.integers(0, 9).map(float),
                        st.floats(0.0, 9.0)).map(lambda uni: (uni,)),
              st.integers(1, 4)),
    max_size=7)


class TestInlinedBound:
    def test_only_the_ruzicka_family_declares_it(self):
        assert min_over_union_measures() == ["jaccard", "ruzicka"]

    @settings(max_examples=200, deadline=None)
    @given(measure_name=st.sampled_from(min_over_union_measures()),
           first=postings_lists, second=postings_lists,
           same=st.booleans(), data=st.data())
    def test_the_inlined_bound_is_the_called_bound(self, measure_name, first,
                                                   second, same, data):
        """The same survivors, in the same order, and the same counts as the
        measure's own ``similarity_upper_bound`` — thresholds drawn where a
        bound lands exactly on them."""
        measure = get_measure(measure_name)
        second = first if same else second
        bounds = sorted({measure.similarity_upper_bound(p.uni, q.uni)
                         for p in first for q in second} - {0.0})
        threshold = data.draw(st.sampled_from(bounds) if bounds
                              else st.just(0.5))
        codec = PairCodec(8)
        inlined = _CandidateFilter(measure, threshold, codec)
        called = _CandidateFilter(measure, threshold, codec)
        called.inline_bound = False
        assert inlined.inline_bound

        def run(candidate_filter):
            block = CandidateColumns()
            counts = candidate_filter.candidates(first, second, same, block)
            return list(block), counts

        assert run(inlined) == run(called)

    def test_a_subclass_that_changes_the_bound_does_not_inherit_it(self):
        """A Tversky-style variant of Ruzicka, ``conj / (conj + 0.5 x (a +
        b - 2 conj))``, bounds above Ruzicka's closed form: that form inlined
        would prune pairs the variant keeps."""
        class HalfWeighted(type(get_measure("ruzicka"))):
            name = "half_weighted_ruzicka"

            def combine(self, uni_i, uni_j, conj):
                intersection = conj[0]
                rest = 0.5 * (uni_i[0] + uni_j[0] - 2 * intersection)
                if intersection + rest <= 0:
                    return 0.0
                return intersection / (intersection + rest)

        measure = HalfWeighted()
        assert bound_kernel_kind(measure) == BOUND_GENERIC
        assert bound_kernel_kind(get_measure("jaccard")) == BOUND_MIN_OVER_UNION
        # {a: 1} and {a: 1, b: 1}: similarity 2/3 under the variant, whose
        # bound is 2/3; Ruzicka's bound is 1/2.
        first = [PostingEntry(0, (1,), 1), PostingEntry(1, (2,), 1)]
        candidate_filter = _CandidateFilter(measure, 0.6, PairCodec(8))
        assert not candidate_filter.inline_bound
        block = CandidateColumns()
        assert candidate_filter.candidates(first, first, True, block) == (1, 0)
        assert len(block) == 1

    def test_registration_refuses_an_unknown_bound_kernel(self):
        class Typo(type(get_measure("ruzicka"))):
            name = "typo_ruzicka"
            bound_kernel = "min_over_onion"

        with pytest.raises(UnknownMeasureError, match="bound_kernel"):
            register_measure(Typo())


def reference_candidate_counts(multisets, measure, threshold, chunk_size):
    """What the per-pair scalar bound keeps and prunes, element by element.

    Every unordered pair of distinct multisets on a posting list is a
    candidate; it is pruned when ``similarity_upper_bound`` of their ``Uni``
    falls below the threshold (a symmetric bound: the order a posting list
    lists them in does not matter), and otherwise emitted by Similarity1 —
    or, for an element with more postings than ``chunk_size``, by
    Similarity2's expansion of its chunk pairs.
    """
    unis = {multiset.id: measure.unilateral(multiset) for multiset in multisets}
    postings: dict = {}
    for multiset in multisets:
        for element in multiset:
            postings.setdefault(element, []).append(multiset.id)
    prunes = measure.conj_upper_bound(measure.uni_zero(),
                                      measure.uni_zero()) is not None
    counts: Counter = Counter()
    for ids in postings.values():
        kept = ("similarity2/chunk_expanded_records"
                if chunk_size is not None and len(ids) > chunk_size
                else "similarity1/candidate_records")
        for first, second in combinations(ids, 2):
            if prunes and measure.similarity_upper_bound(
                    unis[first], unis[second]) < threshold:
                counts["similarity1/candidates_pruned"] += 1
            else:
                counts[kept] += 1
    return counts


def boundary_thresholds(multisets, measure) -> list[float]:
    """Every similarity and every upper bound the corpus's pairs achieve."""
    values = set()
    for first, second in combinations(multisets, 2):
        if first.common_elements(second):
            values.add(measure.similarity(first, second))
            values.add(measure.similarity_upper_bound(
                measure.unilateral(first), measure.unilateral(second)))
    return sorted(value for value in values if 0.0 < value <= 1.0)


class TestThresholdBoundary:
    @settings(max_examples=100, deadline=None)
    @given(cell=join_grid(algorithms=JOINING_ALGORITHMS, backends=("serial",)),
           chunk_size=st.sampled_from([None, 2]), data=st.data())
    def test_batch_path_at_the_boundary(self, cell, chunk_size, data):
        """Thresholds drawn from what the corpus achieves, so a similarity or
        a bound equals the threshold: the pairs are the exact oracle's and
        the candidate counts are the per-pair bound's, chunked or not."""
        corpus = cell.corpus()
        measure = get_measure(cell.measure)
        thresholds = boundary_thresholds(corpus, measure)
        assume(thresholds)
        threshold = data.draw(st.sampled_from(thresholds))
        spec = dataclasses.replace(cell.spec(), threshold=threshold,
                                   chunk_size=chunk_size)
        result = SimilarityEngine().run(spec, corpus)
        assert_matches_oracle(result.pairs, corpus, cell.measure, threshold)
        counters = result.counters()
        expected = reference_candidate_counts(corpus, measure, threshold,
                                              chunk_size)
        for name in ("similarity1/candidate_records",
                     "similarity1/candidates_pruned",
                     "similarity2/chunk_expanded_records"):
            assert counters.get(name, 0) == expected[name], name
