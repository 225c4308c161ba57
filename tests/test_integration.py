"""End-to-end integration tests on generated workloads.

These tests exercise the whole stack the way the paper's evaluation does:
generate a skewed IP/cookie workload with planted proxy groups, run every
algorithm (distributed and sequential), check that they all report the same
similar pairs, and post-process the pairs into proxy communities.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import run_algorithm
from repro.baselines.inverted_index import InvertedIndexJoin
from repro.baselines.ppjoin import PPJoin
from repro.communities.proxies import (
    discovered_proxy_groups,
    evaluate_proxy_discovery,
    filter_small_multisets,
)
from repro.datasets.documents import DocumentCorpusConfig, generate_document_corpus
from repro.datasets.ip_cookie import IPCookieConfig, generate_ip_cookie_dataset
from repro.engine import join
from repro.mapreduce.cluster import laptop_cluster
from repro.similarity.exact import all_pairs_exact


@pytest.fixture(scope="module")
def workload():
    """A small planted-proxy workload shared by the integration tests."""
    config = IPCookieConfig(num_ips=80, num_cookies=400,
                            max_cookies_per_ip=60, min_cookies_per_ip=3,
                            num_proxy_groups=4, ips_per_proxy_group=5,
                            cookies_per_proxy_pool=25, proxy_cookie_affinity=0.9,
                            seed=77)
    return generate_ip_cookie_dataset(config)


@pytest.fixture(scope="module")
def cluster():
    return laptop_cluster(num_machines=5)


class TestAlgorithmAgreement:
    @pytest.mark.parametrize("threshold", [0.2, 0.5])
    def test_all_algorithms_report_identical_pairs(self, workload, cluster, threshold):
        multisets = workload.multisets
        expected = {p.pair for p in all_pairs_exact(multisets, "ruzicka", threshold)}
        outcomes = {}
        for algorithm in ("online_aggregation", "lookup", "sharding", "vcl"):
            outcome = run_algorithm(algorithm, multisets, threshold=threshold,
                                    cluster=cluster, sharding_threshold=20)
            assert outcome.finished, outcome.detail
            outcomes[algorithm] = outcome
            assert {p.pair for p in outcome.pairs} == expected, algorithm
        sequential = {
            "inverted_index": InvertedIndexJoin("ruzicka", threshold).run(multisets),
            "ppjoin": PPJoin("ruzicka", threshold).run(multisets),
        }
        for name, pairs in sequential.items():
            assert {p.pair for p in pairs} == expected, name

    def test_pair_counts_decrease_with_threshold(self, workload, cluster):
        counts = []
        for threshold in (0.1, 0.4, 0.7):
            outcome = run_algorithm("online_aggregation", workload.multisets,
                                    threshold=threshold, cluster=cluster)
            counts.append(outcome.num_pairs)
        assert counts == sorted(counts, reverse=True)


class TestProxyDiscovery:
    def test_planted_groups_are_recovered(self, workload, cluster):
        result = join(workload.multisets, algorithm="online_aggregation",
                      threshold=0.3, cluster=cluster)
        evaluation = evaluate_proxy_discovery(result.pairs, workload.proxy_groups,
                                              threshold=0.3)
        assert evaluation.coverage > 0.7
        groups = discovered_proxy_groups(result.pairs)
        assert len(groups) >= len(workload.proxy_groups) * 0.5

    def test_small_ip_filter_improves_precision(self, workload, cluster):
        multisets = workload.multisets
        unfiltered = join(multisets, algorithm="online_aggregation",
                          threshold=0.2, cluster=cluster)
        baseline = evaluate_proxy_discovery(unfiltered.pairs, workload.proxy_groups,
                                            threshold=0.2)
        filtered_multisets = filter_small_multisets(multisets,
                                                    minimum_distinct_elements=15)
        filtered_ids = {m.id for m in filtered_multisets}
        filtered = join(filtered_multisets, algorithm="online_aggregation",
                        threshold=0.2, cluster=cluster)
        evaluation = evaluate_proxy_discovery(filtered.pairs, workload.proxy_groups,
                                              threshold=0.2,
                                              restrict_to_ids=filtered_ids)
        assert evaluation.precision >= baseline.precision


class TestDocumentDeduplication:
    def test_near_duplicates_found_via_jaccard(self, cluster):
        corpus = generate_document_corpus(DocumentCorpusConfig(
            num_base_documents=6, words_per_document=80,
            duplicates_per_document=1, mutation_rate=0.05, seed=21))
        result = join(corpus.multisets, algorithm="online_aggregation",
                      measure="jaccard", threshold=0.5, cluster=cluster)
        found_pairs = {p.pair for p in result.pairs}
        for duplicate_cluster in corpus.duplicate_clusters:
            members = sorted(duplicate_cluster)
            assert (members[0], members[1]) in found_pairs

    def test_unrelated_documents_not_reported(self, cluster):
        corpus = generate_document_corpus(DocumentCorpusConfig(
            num_base_documents=6, words_per_document=80,
            duplicates_per_document=0, seed=22))
        result = join(corpus.multisets, algorithm="online_aggregation",
                      measure="jaccard", threshold=0.5, cluster=cluster)
        assert result.pairs == []


class TestMemoryPressureScenario:
    def test_lookup_fails_when_table_does_not_fit_but_sharding_survives(self, workload):
        from repro.mapreduce.cluster import Cluster

        # Budget sized between the sharded table (tiny: only multisets with
        # |U(Mi)| > C get entries) and the full interned lookup table.
        tight = Cluster(num_machines=4, memory_per_machine=2_600,
                        disk_per_machine=10 ** 9)
        lookup = run_algorithm("lookup", workload.multisets, threshold=0.5,
                               cluster=tight, sharding_threshold=30)
        sharding = run_algorithm("sharding", workload.multisets, threshold=0.5,
                                 cluster=tight, sharding_threshold=30)
        assert lookup.status == "out_of_memory"
        assert sharding.status == "ok"
