"""Tests for the community-discovery post-processing utilities."""

from __future__ import annotations

import pytest

from repro.communities.clustering import (
    UnionFind,
    clusters_from_pairs,
    connected_components,
)
from repro.communities.graph import SimilarityGraph
from repro.communities.proxies import (
    evaluate_proxy_discovery,
    filter_small_multisets,
    ground_truth_pairs,
)
from repro.core.multiset import Multiset
from repro.core.records import SimilarPair


class TestUnionFind:
    def test_basic_union(self):
        union_find = UnionFind()
        union_find.union("a", "b")
        union_find.union("c", "d")
        assert union_find.connected("a", "b")
        assert not union_find.connected("a", "c")
        union_find.union("b", "c")
        assert union_find.connected("a", "d")

    def test_groups_sorted_by_size(self):
        union_find = UnionFind()
        union_find.union("a", "b")
        union_find.union("b", "c")
        union_find.union("x", "y")
        union_find.add("solo")
        groups = union_find.groups()
        assert groups[0] == {"a", "b", "c"}
        assert {"solo"} in groups


class TestSimilarityGraph:
    def make_graph(self):
        return SimilarityGraph.from_pairs([
            SimilarPair("a", "b", 0.9),
            SimilarPair("b", "c", 0.8),
            SimilarPair("x", "y", 0.7),
        ])

    def test_nodes_edges(self):
        graph = self.make_graph()
        assert graph.num_nodes == 5
        assert graph.num_edges == 3
        assert graph.has_edge("a", "b")
        assert graph.has_edge("b", "a")
        assert not graph.has_edge("a", "x")
        assert graph.edge_weight("b", "c") == 0.8
        assert graph.edge_weight("a", "x") == 0.0
        assert graph.degree("b") == 2
        assert graph.neighbours("b") == {"a", "c"}

    def test_self_loops_ignored(self):
        graph = SimilarityGraph()
        graph.add_edge("a", "a", 1.0)
        assert graph.num_edges == 0

    def test_edges_iteration(self):
        graph = self.make_graph()
        assert len(list(graph.edges())) == 3


class TestClustering:
    def test_connected_components(self):
        graph = SimilarityGraph.from_pairs([
            SimilarPair("a", "b", 1.0), SimilarPair("b", "c", 1.0),
            SimilarPair("x", "y", 1.0),
        ])
        components = connected_components(graph)
        assert {"a", "b", "c"} in components
        assert {"x", "y"} in components

    def test_clusters_from_pairs_minimum_size(self):
        pairs = [SimilarPair("a", "b", 1.0)]
        assert clusters_from_pairs(pairs, minimum_size=2) == [{"a", "b"}]
        assert clusters_from_pairs(pairs, minimum_size=3) == []


class TestProxyEvaluation:
    def test_ground_truth_pairs(self):
        truth = ground_truth_pairs([{"a", "b", "c"}, {"x", "y"}])
        assert ("a", "b") in truth
        assert ("x", "y") in truth
        assert len(truth) == 4

    def test_evaluation_metrics(self):
        groups = [{"a", "b", "c"}]
        discovered = [SimilarPair("a", "b", 0.9),   # true positive
                      SimilarPair("a", "z", 0.8)]   # false positive
        evaluation = evaluate_proxy_discovery(discovered, groups, threshold=0.5)
        assert evaluation.discovered_pairs == 2
        assert evaluation.true_positive_pairs == 1
        assert evaluation.false_positive_pairs == 1
        assert evaluation.ground_truth_pairs == 3
        assert evaluation.precision == pytest.approx(0.5)
        assert evaluation.coverage == pytest.approx(1 / 3)
        assert evaluation.false_positive_rate == pytest.approx(0.5)
        # (a, b) and (a, z) are connected through "a": one cluster of size 3.
        assert evaluation.discovered_clusters == 1
        assert evaluation.largest_cluster == 3

    def test_evaluation_with_restriction(self):
        groups = [{"a", "b", "c"}]
        discovered = [SimilarPair("a", "b", 0.9)]
        evaluation = evaluate_proxy_discovery(discovered, groups, threshold=0.5,
                                              restrict_to_ids={"a", "b"})
        assert evaluation.ground_truth_pairs == 1
        assert evaluation.coverage == pytest.approx(1.0)

    def test_empty_discovery(self):
        evaluation = evaluate_proxy_discovery([], [{"a", "b"}], threshold=0.5)
        assert evaluation.precision == 1.0
        assert evaluation.coverage == 0.0
        assert evaluation.false_positive_rate == 0.0

    def test_filter_small_multisets(self):
        multisets = [Multiset("big", {f"e{i}": 1 for i in range(60)}),
                     Multiset("small", {"e1": 100})]
        kept = filter_small_multisets(multisets, minimum_distinct_elements=50)
        assert [m.id for m in kept] == ["big"]
