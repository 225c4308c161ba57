"""The record types of the mutation stream: changes in, pair deltas out.

A corpus under live traffic evolves as a stream of *changes* — upserts
(insert-or-replace of a whole multiset) and deletes — grouped into
:class:`ChangeBatch` units of application.  A maintained
:class:`~repro.streaming.view.JoinView` consumes batches and emits
:class:`PairDelta` events describing exactly how the materialized similar-
pair set moved: a pair entering the result (``pair_added``), leaving it
(``pair_removed``) or staying above the threshold with a different score
(``score_changed``).  Replaying the deltas over the previous pair set with
:func:`apply_deltas` reconstructs the new pair set exactly — that is the
contract the stateful property suite asserts.

This module deliberately depends only on :mod:`repro.core` so the dataset
generators can produce change batches without importing the view machinery.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Iterable, Iterator, MutableMapping, Sequence

from repro.core.exceptions import StreamingError
from repro.core.multiset import Multiset, MultisetId
from repro.core.records import canonical_pair

#: Change kinds.
UPSERT = "upsert"
DELETE = "delete"

#: Pair-delta kinds.
PAIR_ADDED = "pair_added"
PAIR_REMOVED = "pair_removed"
SCORE_CHANGED = "score_changed"

DELTA_KINDS = (PAIR_ADDED, PAIR_REMOVED, SCORE_CHANGED)


@dataclass(frozen=True, slots=True)
class Change:
    """One mutation: upsert a whole multiset, or delete one by identifier.

    Build instances through :meth:`upsert` / :meth:`delete`; the constructor
    validates that the payload matches the kind (an upsert carries the new
    multiset, a delete carries only the identifier).
    """

    kind: str
    multiset: Multiset | None = None
    multiset_id: MultisetId | None = None

    def __post_init__(self) -> None:
        if self.kind == UPSERT:
            if not isinstance(self.multiset, Multiset):
                raise StreamingError(
                    f"an {UPSERT} change carries the new Multiset, "
                    f"got {self.multiset!r}")
        elif self.kind == DELETE:
            if self.multiset is not None:
                raise StreamingError(
                    f"a {DELETE} change names an identifier only; "
                    "pass multiset_id, not the multiset")
            if self.multiset_id is None \
                    or not isinstance(self.multiset_id, Hashable):
                raise StreamingError(
                    f"a {DELETE} change names the hashable identifier to "
                    f"remove, got {self.multiset_id!r}")
        else:
            raise StreamingError(
                f"unknown change kind {self.kind!r}; "
                f"expected {UPSERT!r} or {DELETE!r}")

    @classmethod
    def upsert(cls, multiset: Multiset) -> "Change":
        """Insert ``multiset``, replacing any entity with the same id."""
        return cls(kind=UPSERT, multiset=multiset)

    @classmethod
    def delete(cls, multiset_id: MultisetId) -> "Change":
        """Remove the entity with this identifier."""
        return cls(kind=DELETE, multiset_id=multiset_id)

    @property
    def target(self) -> MultisetId:
        """The identifier this change writes."""
        if self.kind == UPSERT:
            return self.multiset.id
        return self.multiset_id


@dataclass(frozen=True)
class ChangeBatch:
    """An ordered group of changes applied as one logical write.

    Within a batch, later changes to the same identifier win (stream
    semantics); the view applies the whole batch before emitting a single
    consolidated set of pair deltas.
    """

    changes: tuple[Change, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        try:
            changes = tuple(self.changes)
        except TypeError:
            raise StreamingError(
                f"a change batch is built from Change records, not "
                f"{type(self.changes).__name__}") from None
        object.__setattr__(self, "changes", changes)
        for position, change in enumerate(self.changes):
            if not isinstance(change, Change):
                raise StreamingError(
                    f"ChangeBatch items must be Change records; item "
                    f"{position} is {type(change).__name__}")

    @classmethod
    def of(cls, *changes: Change) -> "ChangeBatch":
        """Build a batch from individual changes."""
        return cls(changes)

    @classmethod
    def coerce(cls, changes) -> "ChangeBatch":
        """Accept a batch, a single change or an iterable of changes."""
        if isinstance(changes, ChangeBatch):
            return changes
        if isinstance(changes, Change):
            return cls((changes,))
        return cls(changes)

    def __iter__(self) -> Iterator[Change]:
        return iter(self.changes)

    def __len__(self) -> int:
        return len(self.changes)

    def __bool__(self) -> bool:
        return bool(self.changes)

    @property
    def upserts(self) -> tuple[Change, ...]:
        """The upsert changes, in batch order."""
        return tuple(change for change in self.changes if change.kind == UPSERT)

    @property
    def deletes(self) -> tuple[Change, ...]:
        """The delete changes, in batch order."""
        return tuple(change for change in self.changes if change.kind == DELETE)

    def targets(self) -> list[MultisetId]:
        """The written identifiers, deduplicated, in first-write order."""
        seen: dict[MultisetId, None] = {}
        for change in self.changes:
            seen.setdefault(change.target)
        return list(seen)


@dataclass(frozen=True, slots=True)
class PairDelta:
    """One movement of the materialized pair set.

    ``similarity`` is the score *after* the batch (``None`` for
    ``pair_removed``); ``previous`` is the score *before* it (``None`` for
    ``pair_added``).  ``first < second`` canonically, as everywhere else.
    """

    first: MultisetId
    second: MultisetId
    kind: str
    similarity: float | None = None
    previous: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in DELTA_KINDS:
            raise StreamingError(
                f"unknown delta kind {self.kind!r}; expected one of {DELTA_KINDS}")
        if self.kind == PAIR_REMOVED:
            if self.similarity is not None or self.previous is None:
                raise StreamingError(
                    f"a {PAIR_REMOVED} delta carries previous= only")
        elif self.similarity is None:
            raise StreamingError(f"a {self.kind} delta carries similarity=")
        elif self.kind == PAIR_ADDED and self.previous is not None:
            raise StreamingError(f"a {PAIR_ADDED} delta has no previous score")
        elif self.kind == SCORE_CHANGED and self.previous is None:
            raise StreamingError(f"a {SCORE_CHANGED} delta carries previous=")

    @property
    def pair(self) -> tuple[MultisetId, MultisetId]:
        """The affected unordered pair, canonically ordered."""
        return (self.first, self.second)

    @classmethod
    def added(cls, id_a: MultisetId, id_b: MultisetId,
              similarity: float) -> "PairDelta":
        first, second = canonical_pair(id_a, id_b)
        return cls(first, second, PAIR_ADDED, similarity=similarity)

    @classmethod
    def removed(cls, id_a: MultisetId, id_b: MultisetId,
                previous: float) -> "PairDelta":
        first, second = canonical_pair(id_a, id_b)
        return cls(first, second, PAIR_REMOVED, previous=previous)

    @classmethod
    def changed(cls, id_a: MultisetId, id_b: MultisetId,
                similarity: float, previous: float) -> "PairDelta":
        first, second = canonical_pair(id_a, id_b)
        return cls(first, second, SCORE_CHANGED,
                   similarity=similarity, previous=previous)


def sort_deltas(deltas: Iterable[PairDelta]) -> list[PairDelta]:
    """Deterministic delta order: by pair, then kind.

    Mixed identifier types fall back to their representation, like every
    other ordering in the package.
    """
    materialised = list(deltas)
    try:
        return sorted(materialised,
                      key=lambda delta: (delta.first, delta.second, delta.kind))
    except TypeError:
        return sorted(materialised,
                      key=lambda delta: (repr(delta.first), repr(delta.second),
                                         delta.kind))


def apply_deltas(pairs: MutableMapping[tuple, float],
                 deltas: Sequence[PairDelta]) -> MutableMapping[tuple, float]:
    """Replay deltas over a ``{(first, second): similarity}`` map, in place.

    This is the consumer side of the delta contract: a subscriber holding
    the previous pair set reconstructs the new one without recomputing any
    similarity.  Replay is strict — adding a pair that is already present,
    or removing/adjusting one that is not, raises, because a delta stream
    that does not match the state it is applied to is a correctness bug.
    """
    for delta in deltas:
        if delta.kind == PAIR_ADDED:
            if delta.pair in pairs:
                raise StreamingError(
                    f"delta adds pair {delta.pair!r} which is already present")
            pairs[delta.pair] = delta.similarity
        elif delta.kind == PAIR_REMOVED:
            if delta.pair not in pairs:
                raise StreamingError(
                    f"delta removes pair {delta.pair!r} which is not present")
            del pairs[delta.pair]
        else:
            if delta.pair not in pairs:
                raise StreamingError(
                    f"delta rescores pair {delta.pair!r} which is not present")
            pairs[delta.pair] = delta.similarity
    return pairs
