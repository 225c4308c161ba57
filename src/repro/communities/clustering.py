"""Clustering of the similarity graph into communities.

The paper treats each connected set of similar IPs as one load balancer.
Connected components are computed with a union-find structure; a stricter
mutual-similarity variant (every member similar to at least a fraction of
the cluster) is provided for noisier graphs.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.communities.graph import SimilarityGraph
from repro.core.records import SimilarPair


class UnionFind:
    """Disjoint-set forest with union by size and path compression."""

    def __init__(self) -> None:
        self._parent: dict = {}
        self._size: dict = {}

    def add(self, item: Hashable) -> None:
        """Register an item as its own singleton set (idempotent)."""
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1

    def find(self, item: Hashable) -> Hashable:
        """Return the representative of the item's set."""
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, first: Hashable, second: Hashable) -> None:
        """Merge the sets containing the two items."""
        root_first = self.find(first)
        root_second = self.find(second)
        if root_first == root_second:
            return
        if self._size[root_first] < self._size[root_second]:
            root_first, root_second = root_second, root_first
        self._parent[root_second] = root_first
        self._size[root_first] += self._size[root_second]

    def connected(self, first: Hashable, second: Hashable) -> bool:
        """Whether the two items are in the same set."""
        return self.find(first) == self.find(second)

    def groups(self) -> list[set]:
        """Return all sets, largest first."""
        by_root: dict = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), set()).add(item)
        return sorted(by_root.values(), key=lambda group: (-len(group), repr(sorted(group, key=repr)[:1])))


def connected_components(graph: SimilarityGraph) -> list[set]:
    """Connected components of the similarity graph, largest first."""
    union_find = UnionFind()
    for node in graph.nodes():
        union_find.add(node)
    for first, second, _weight in graph.edges():
        union_find.union(first, second)
    return union_find.groups()


def clusters_from_pairs(pairs: Iterable[SimilarPair],
                        minimum_size: int = 2) -> list[set]:
    """Cluster similar pairs into communities of at least ``minimum_size``."""
    graph = SimilarityGraph.from_pairs(pairs)
    return [component for component in connected_components(graph)
            if len(component) >= minimum_size]
