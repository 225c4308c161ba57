"""Incremental join maintenance: exact delta views over mutation streams.

The batch engine answers "which pairs are similar *now*"; this subsystem
keeps that answer correct while the corpus churns:

* :class:`~repro.streaming.changes.Change` / :class:`ChangeBatch` — the
  mutation stream (upserts and deletes, applied batch-at-a-time);
* :class:`~repro.streaming.view.JoinView` — the materialized pair set of a
  :class:`~repro.engine.spec.JoinSpec`, maintained exactly under mutation
  and emitting :class:`~repro.streaming.changes.PairDelta` events whose
  cumulative effect matches a from-scratch engine re-join bit for bit;
* :func:`~repro.streaming.subscribers.attach_serving` — stream deltas into
  a serving node or sharded fleet, re-warming result caches from the pair
  map instead of re-running the join bootstrap.

Views come from :meth:`repro.SimilarityEngine.materialize` or
:meth:`repro.JoinResult.to_view`; seeded mutation streams come from
:func:`repro.datasets.generate_mutation_stream`.
"""

from repro.streaming.changes import (
    DELETE,
    PAIR_ADDED,
    PAIR_REMOVED,
    SCORE_CHANGED,
    UPSERT,
    Change,
    ChangeBatch,
    PairDelta,
    apply_deltas,
    sort_deltas,
)
from repro.streaming.subscribers import attach_serving
from repro.streaming.view import JoinView

__all__ = [
    "Change",
    "ChangeBatch",
    "DELETE",
    "JoinView",
    "PAIR_ADDED",
    "PAIR_REMOVED",
    "PairDelta",
    "SCORE_CHANGED",
    "UPSERT",
    "apply_deltas",
    "attach_serving",
    "sort_deltas",
]
