"""Streaming deltas into the serving layer.

:func:`attach_serving` keeps a :class:`~repro.serving.node.ServingNode` or a
:class:`~repro.serving.service.ReplicatedSimilarityService` in lockstep with a
:class:`~repro.streaming.view.JoinView`: every applied change batch is
routed into the target's index, and — because the view already holds the
exact post-batch pair set — every member's threshold-query answer at the
view's threshold is re-warmed straight from the pair map.  That replaces
the previous deployment story, where keeping a fleet's caches warm under
churn meant re-running :func:`repro.serving.bootstrap_from_join` (a full
batch join) after every corpus change: the subscriber pays
``O(members + pairs)`` dictionary work per batch and never scans a posting
list to warm a cache.

Warming re-seeds *every* member (not just the written ones) because a
serving write invalidates the node's whole result cache — the entries of
unwritten members are gone either way, and re-deriving them from the pair
map costs no similarity computation.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.exceptions import StreamingError
from repro.serving.bootstrap import warm_member_caches
from repro.serving.node import ServingNode
from repro.serving.service import ReplicatedSimilarityService
from repro.streaming.changes import DELETE, ChangeBatch, PairDelta
from repro.streaming.view import JoinView


class ServingSubscription:
    """A live link from a view to a serving node or fleet.

    Construct through :func:`attach_serving`.  The target must serve the
    view's measure and must not use stop-word pruning when ``warm=True``
    (warmed exact answers would not match what pruned queries compute once
    evicted — the same guard the join bootstrap applies).  An empty target
    is bulk-loaded from the view; a pre-loaded target must hold exactly the
    view's members.  Every write and every warmed entry goes through the
    target's own ``add`` / ``remove`` / ``warm``, so a replicated fleet
    fans them into all its replicas and never diverges.
    """

    def __init__(self, view: JoinView,
                 target: ServingNode | ReplicatedSimilarityService, *,
                 warm: bool = True) -> None:
        if not isinstance(target, (ServingNode, ReplicatedSimilarityService)):
            raise StreamingError(
                "attach_serving targets a ServingNode or a "
                f"ReplicatedSimilarityService, got {type(target).__name__}")
        if target.measure.name != view.measure.name:
            raise StreamingError(
                f"serving target measure {target.measure.name!r} does not "
                f"match the view's measure {view.measure.name!r}")
        self.view = view
        self.target = target
        self.warm = warm
        if warm and target.stop_word_frequency is not None:
            raise StreamingError(
                "cannot warm caches of an index with stop-word pruning: the "
                "view's exact pairs would not match what live queries "
                "compute once the cache is invalidated; attach with "
                "warm=False")
        self._load()
        if warm:
            self._warm_all()
        self._callback = view.subscribe(self._on_batch)

    # -- lifecycle -------------------------------------------------------------

    def detach(self) -> None:
        """Stop following the view; the target keeps its current state."""
        self.view.unsubscribe(self._callback)

    def _load(self) -> None:
        members = self.view.members()
        if len(self.target) == 0:
            self.target.bulk_load(members)
            return
        # Identifiers alone are not enough: a target loaded from a stale
        # snapshot under the same ids would serve answers disagreeing with
        # the view the moment its caches are invalidated.
        if len(self.target) != len(members) or any(
                self.target.get(member.id) != member for member in members):
            raise StreamingError(
                "a pre-loaded serving target must hold exactly the view's "
                "members (same identifiers and contents); load an empty "
                "target through attach_serving instead")

    # -- delta handling --------------------------------------------------------

    def _on_batch(self, view: JoinView, batch: ChangeBatch,
                  deltas: Sequence[PairDelta]) -> None:
        for change in batch:
            if change.kind == DELETE:
                self.target.remove(change.target)
            else:
                self.target.add(change.multiset,
                                replace=change.target in self.target)
        if self.warm:
            self._warm_all()

    def _warm_all(self) -> None:
        """Re-seed every member's threshold answer from the view's pair map."""
        warm_member_caches(
            self.target, self.view.members(),
            lambda member: self.view.matches_for(member.id),
            self.view.threshold)


def attach_serving(view: JoinView,
                   target: ServingNode | ReplicatedSimilarityService, *,
                   warm: bool = True) -> ServingSubscription:
    """Keep a serving node or fleet in sync with a maintained view.

    Loads the target from the view (when empty), optionally warms every
    member's threshold-query cache entry from the view's pair map, and
    subscribes so each applied batch updates the target and re-warms —
    no batch join ever re-runs.  Returns the subscription; call
    :meth:`ServingSubscription.detach` to stop following the view.
    """
    return ServingSubscription(view, target, warm=warm)
