"""Tests for the workload generators and statistics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import DatasetError
from repro.datasets.documents import (
    DocumentCorpusConfig,
    generate_document_corpus,
    shingle_document,
)
from repro.datasets.ip_cookie import (
    IPCookieConfig,
    generate_ip_cookie_dataset,
    generate_preset,
    realistic_dataset_config,
    small_dataset_config,
)
from repro.datasets.stats import (
    elements_per_multiset,
    log_binned_histogram,
    multisets_per_element,
    skew_ratio,
    summarise_distribution,
)
from repro.datasets.zipf import BoundedZipf, clipped_zipf_sizes
from repro.similarity.registry import get_measure


class TestZipf:
    def test_probabilities_normalised_and_decreasing(self):
        distribution = BoundedZipf(100, 1.5)
        probabilities = distribution.probabilities
        assert probabilities.sum() == pytest.approx(1.0)
        assert all(probabilities[i] >= probabilities[i + 1] for i in range(99))

    def test_samples_within_support(self):
        rng = np.random.default_rng(1)
        samples = BoundedZipf(50, 1.2).sample(rng, 500)
        assert samples.min() >= 1
        assert samples.max() <= 50

    def test_sample_zero(self):
        rng = np.random.default_rng(1)
        assert len(BoundedZipf(50, 1.2).sample(rng, 0)) == 0

    def test_validation(self):
        with pytest.raises(DatasetError):
            BoundedZipf(0, 1.0)
        with pytest.raises(DatasetError):
            BoundedZipf(10, 0.0)
        rng = np.random.default_rng(1)
        with pytest.raises(DatasetError):
            BoundedZipf(10, 1.0).sample(rng, -1)

    def test_clipped_sizes_respect_minimum(self):
        rng = np.random.default_rng(2)
        sizes = clipped_zipf_sizes(rng, 200, 50, 1.5, minimum=3)
        assert sizes.min() >= 3

    def test_mean_is_finite(self):
        assert 1.0 <= BoundedZipf(100, 2.0).mean() <= 100.0


class TestIPCookieGenerator:
    def test_deterministic_for_seed(self):
        config = IPCookieConfig(num_ips=50, num_cookies=200, num_proxy_groups=2,
                                ips_per_proxy_group=4, cookies_per_proxy_pool=10, seed=5)
        first = generate_ip_cookie_dataset(config)
        second = generate_ip_cookie_dataset(config)
        assert [m.counts() for m in first.multisets] == [m.counts() for m in second.multisets]

    def test_different_seeds_differ(self):
        base = dict(num_ips=50, num_cookies=200, num_proxy_groups=2,
                    ips_per_proxy_group=4, cookies_per_proxy_pool=10)
        first = generate_ip_cookie_dataset(IPCookieConfig(seed=1, **base))
        second = generate_ip_cookie_dataset(IPCookieConfig(seed=2, **base))
        assert [m.counts() for m in first.multisets] != [m.counts() for m in second.multisets]

    def test_shapes_and_ground_truth(self):
        config = IPCookieConfig(num_ips=60, num_cookies=300, num_proxy_groups=3,
                                ips_per_proxy_group=5, cookies_per_proxy_pool=20, seed=9)
        dataset = generate_ip_cookie_dataset(config)
        assert len(dataset.multisets) == 60
        assert len(dataset.proxy_groups) == 3
        assert all(len(group) == 5 for group in dataset.proxy_groups)
        assert len(dataset.proxy_ips) == 15
        assert set(dataset.multisets_by_id()) == {m.id for m in dataset.multisets}

    def test_proxy_groups_are_actually_similar(self):
        config = IPCookieConfig(num_ips=60, num_cookies=300, num_proxy_groups=2,
                                ips_per_proxy_group=4, cookies_per_proxy_pool=30,
                                proxy_cookie_affinity=0.95, seed=11)
        dataset = generate_ip_cookie_dataset(config)
        by_id = dataset.multisets_by_id()
        measure = get_measure("ruzicka")
        group = sorted(dataset.proxy_groups[0])
        in_group = measure.similarity(by_id[group[0]], by_id[group[1]])
        outsider = dataset.multisets[-1]
        out_group = measure.similarity(by_id[group[0]], outsider)
        assert in_group > 0.3
        assert in_group > out_group

    def test_distributions_are_skewed(self):
        dataset = generate_preset("small")
        assert skew_ratio(elements_per_multiset(dataset.multisets)) > 3
        assert skew_ratio(multisets_per_element(dataset.multisets)) > 3

    def test_config_validation(self):
        with pytest.raises(DatasetError):
            IPCookieConfig(num_ips=0)
        with pytest.raises(DatasetError):
            IPCookieConfig(num_ips=5, num_proxy_groups=2, ips_per_proxy_group=5)
        with pytest.raises(DatasetError):
            IPCookieConfig(proxy_cookie_affinity=1.5)
        with pytest.raises(DatasetError):
            IPCookieConfig(max_cookies_per_ip=2, min_cookies_per_ip=5)
        with pytest.raises(DatasetError):
            IPCookieConfig(mean_multiplicity=0.5)

    def test_presets(self):
        small = small_dataset_config()
        realistic = realistic_dataset_config()
        assert realistic.num_ips > small.num_ips
        assert realistic.num_cookies > small.num_cookies
        with pytest.raises(DatasetError):
            generate_preset("gigantic")


class TestDocumentCorpus:
    def test_shingling(self):
        multiset = shingle_document("doc", ["a", "b", "c", "b", "c"], 2)
        assert multiset.multiplicity("b c") == 2
        assert multiset.multiplicity("a b") == 1

    def test_shingle_shorter_than_document(self):
        multiset = shingle_document("doc", ["a"], 3)
        assert multiset.cardinality == 1

    def test_corpus_ground_truth(self):
        config = DocumentCorpusConfig(num_base_documents=5, words_per_document=60,
                                      duplicates_per_document=2, seed=3)
        corpus = generate_document_corpus(config)
        assert len(corpus.documents) == 15
        assert len(corpus.duplicate_clusters) == 5
        assert len(corpus.multisets) == 15

    def test_duplicates_are_similar(self):
        config = DocumentCorpusConfig(num_base_documents=4, words_per_document=80,
                                      duplicates_per_document=1, mutation_rate=0.05, seed=4)
        corpus = generate_document_corpus(config)
        by_id = {m.id: m for m in corpus.multisets}
        measure = get_measure("jaccard")
        for cluster in corpus.duplicate_clusters:
            members = sorted(cluster)
            assert measure.similarity(by_id[members[0]], by_id[members[1]]) > 0.5

    def test_config_validation(self):
        with pytest.raises(DatasetError):
            DocumentCorpusConfig(num_base_documents=0)
        with pytest.raises(DatasetError):
            DocumentCorpusConfig(words_per_document=2, shingle_length=5)
        with pytest.raises(DatasetError):
            DocumentCorpusConfig(mutation_rate=2.0)


class TestStats:
    def test_elements_per_multiset(self, overlapping_multisets):
        values = elements_per_multiset(overlapping_multisets)
        assert sorted(values) == [2, 2, 3, 3, 3]

    def test_multisets_per_element(self, overlapping_multisets):
        values = multisets_per_element(overlapping_multisets)
        assert max(values) == 4  # element "x" appears in a, b, c, e

    def test_log_binned_histogram(self):
        histogram = log_binned_histogram([1, 1, 2, 3, 4, 8, 9], base=2.0)
        assert histogram[0] == (1, 2, 2)
        assert sum(count for _, _, count in histogram) == 7
        with pytest.raises(ValueError):
            log_binned_histogram([1], base=1.0)

    def test_summary(self):
        summary = summarise_distribution([1, 2, 3, 4, 100])
        assert summary.count == 5
        assert summary.maximum == 100
        assert summary.minimum == 1
        assert summary.median == 3
        assert 0 < summary.top_1_percent_share <= 1

    def test_summary_empty(self):
        summary = summarise_distribution([])
        assert summary.count == 0
        assert skew_ratio([]) == 0.0
