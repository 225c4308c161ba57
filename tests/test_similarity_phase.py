"""Tests for the shared V-SMART-Join similarity phase."""

from __future__ import annotations

import pytest

from repro.core.exceptions import JobConfigurationError
from repro.core.interning import InterningContext, PairCodec
from repro.core.records import JoinedTuple, PairContribution, explode_multisets
from repro.mapreduce.counters import Counters
from repro.mapreduce.dfs import Dataset
from repro.mapreduce.job import TaskContext
from repro.mapreduce.runner import LocalJobRunner
from repro.similarity.exact import pair_dictionary
from repro.similarity.registry import get_measure
from repro.vsmart.similarity_phase import (
    ChunkPairRecord,
    Similarity1Reducer,
    SimilarityPhaseConfig,
    build_similarity1_job,
    build_similarity2_job,
)
from tests.conftest import assert_matches_oracle


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
        from repro.mapreduce.counters import Counters
        from repro.mapreduce.job import TaskContext

        reducer = Similarity1Reducer(SimilarityPhaseConfig(chunk_size=2),
                                     pair_codec=PairCodec(5))
        postings = [PostingEntry(i, (1.0,), 1.0) for i in range(5)]
        context = TaskContext(Counters())
        records = list(reducer.reduce("element", postings, context))
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
        context = TaskContext(Counters())
        [(key, contribution)] = reducer.reduce("x", [posting_z, posting_a], context)
        assert key == (codec.pack(2, 7), (4.0,), (9.0,))
        assert contribution == PairContribution(2.0, 5.0)
        # Either emission order lands on the one canonical record.
        assert list(reducer.reduce("x", [posting_a, posting_z], context)) == [
            (key, contribution)]
        assert context.counters.as_dict()["similarity1/candidate_records"] == 2

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
