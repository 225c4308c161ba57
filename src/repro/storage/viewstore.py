"""Durable :class:`~repro.streaming.view.JoinView`\\ s: snapshot + log.

A maintained view is made crash-safe with the classic checkpoint/WAL
split, both halves living in one :class:`~repro.storage.engine.StorageEngine`
database:

* :meth:`ViewStore.snapshot` writes the view's spec, corpus and
  materialized pair map at its current version, then prunes the mutation
  log up to that version — the log only ever carries the suffix a
  recovery still needs;
* :meth:`ViewStore.append` writes one applied
  :class:`~repro.streaming.changes.ChangeBatch` in its own committed
  transaction, keyed by the view version the batch produced;
* :meth:`ViewStore.load` (surfaced as ``JoinView.recover(path)``)
  rebuilds the snapshot and replays the logged suffix **with the
  incremental strategy** — which, by the exactness property the streaming
  test suite asserts (every maintained score is a sum of integer-valued
  effective multiplicities), lands on the *bit-identical* pair set the
  lost process held after its last durable batch.

:meth:`ViewStore.attach` wires a live view to its store: it snapshots
immediately and then logs every applied batch from inside the view's
subscriber callback, so by the time ``apply()`` returns to the caller the
batch is already committed.  An optional ``snapshot_every`` folds the log
back into a fresh snapshot periodically, bounding replay time after a
crash.
"""

from __future__ import annotations

import json
import os

from repro.core.exceptions import StorageError
from repro.core.multiset import Multiset
from repro.core.records import SimilarPair
from repro.storage.codecs import (
    VIEW_STORE,
    describe_spec,
    load_members,
    save_members,
    spec_from_description,
)
from repro.storage.engine import StorageEngine, open_engine
from repro.storage.values import decode_value, encode_value


class ViewStore:
    """The durable home of one :class:`~repro.streaming.view.JoinView`.

    Parameters
    ----------
    destination:
        Database path (opened, and closed again by :meth:`close`) or an
        already-open :class:`StorageEngine` (borrowed).
    """

    def __init__(self,
                 destination: str | os.PathLike | StorageEngine) -> None:
        self._engine, self._owned = open_engine(destination)

    # -- lifecycle -----------------------------------------------------------

    @property
    def engine(self) -> StorageEngine:
        """The underlying storage engine."""
        return self._engine

    def close(self) -> None:
        """Close the engine if this store opened it."""
        if self._owned:
            self._engine.close()

    def __enter__(self) -> "ViewStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- checkpointing -------------------------------------------------------

    def snapshot(self, view) -> None:
        """Checkpoint the view: spec + corpus + pairs at its version.

        One transaction; the mutation log is pruned up to the snapshot
        version in the same commit, so the database always describes one
        consistent (snapshot, suffix) pair.
        """
        engine = self._engine
        with engine.transaction():
            save_members(engine, VIEW_STORE, view.members())
            engine.execute("DELETE FROM view_pairs")
            engine.executemany(
                "INSERT INTO view_pairs (first, second, similarity) "
                "VALUES (?, ?, ?)",
                [(encode_value(first), encode_value(second), similarity)
                 for (first, second), similarity in view.pairs().items()])
            engine.set_meta("view", "spec", describe_spec(view.spec))
            engine.set_meta("view", "snapshot_version", str(view.version))
            engine.execute("DELETE FROM mutation_log WHERE batch_seq <= ?",
                           (view.version,))

    def append(self, batch, version: int) -> None:
        """Log one applied batch as the write that produced ``version``.

        Committed before returning — once this method exits, a crash
        cannot lose the batch.  Upsert payloads store the new multiset's
        elements in insertion order, which replay preserves (element order
        drives float accumulation order, hence bit-identical recovery).
        """
        rows = []
        for position, change in enumerate(batch):
            payload = None
            if change.multiset is not None:
                payload = json.dumps(
                    [[encode_value(element), multiplicity]
                     for element, multiplicity in change.multiset.items()],
                    separators=(",", ":"), ensure_ascii=False)
            rows.append((version, position, change.kind,
                         encode_value(change.target), payload))
        engine = self._engine
        with engine.transaction():
            engine.executemany(
                "INSERT INTO mutation_log "
                "(batch_seq, position, kind, target, payload) "
                "VALUES (?, ?, ?, ?, ?)", rows)

    def log_batches(self, after: int = 0) -> list[tuple[int, "object"]]:
        """The logged ``(version, ChangeBatch)`` suffix past ``after``."""
        from repro.streaming.changes import Change, ChangeBatch

        grouped: dict[int, list] = {}
        for batch_seq, kind, target, payload in self._engine.query(
                "SELECT batch_seq, kind, target, payload FROM mutation_log "
                "WHERE batch_seq > ? ORDER BY batch_seq, position", (after,)):
            target_id = decode_value(target)
            if payload is None:
                change = Change.delete(target_id)
            else:
                try:
                    contents = json.loads(payload)
                except (TypeError, ValueError) as error:
                    raise StorageError(
                        f"mutation log batch {batch_seq} is corrupted: "
                        f"{error}") from None
                change = Change.upsert(Multiset(
                    target_id,
                    [(decode_value(element), multiplicity)
                     for element, multiplicity in contents]))
            grouped.setdefault(batch_seq, []).append(change)
        return [(batch_seq, ChangeBatch(tuple(grouped[batch_seq])))
                for batch_seq in sorted(grouped)]

    # -- live attachment -----------------------------------------------------

    def attach(self, view, snapshot_every: int | None = None):
        """Make a live view durable: snapshot now, log every batch after.

        Registers a subscriber on the view, so each ``apply()`` commits
        its batch to the log before returning to the caller.  With
        ``snapshot_every=n``, every ``n``-th logged batch is folded into a
        fresh snapshot (pruning the log), bounding crash-replay length.
        Returns a :class:`ViewSubscription`; call its ``detach()`` to stop
        logging (the database keeps its last consistent state).
        """
        if snapshot_every is not None and snapshot_every < 1:
            raise StorageError(
                f"snapshot_every must be >= 1 when set, got {snapshot_every}")
        self.snapshot(view)
        return ViewSubscription(self, view, snapshot_every)

    def load(self, *, engine=None):
        """Rebuild the stored view: snapshot, then replay the log suffix.

        ``engine`` is an optional
        :class:`~repro.engine.engine.SimilarityEngine` handed to the
        rebuilt view for its future re-join pricing (recovery itself
        always replays incrementally).  Raises
        :class:`~repro.core.exceptions.StorageError` when the database
        holds no view or the log suffix is not contiguous with the
        snapshot.
        """
        from repro.streaming.view import INCREMENTAL, JoinView

        store_engine = self._engine
        described = store_engine.get_meta("view", "spec")
        if described is None:
            raise StorageError(
                f"{store_engine.path!r} holds no join view")
        spec = spec_from_description(described, store_engine.path)
        members = load_members(store_engine, VIEW_STORE)
        pairs = [SimilarPair(decode_value(first), decode_value(second),
                             similarity)
                 for first, second, similarity in store_engine.query(
                     "SELECT first, second, similarity FROM view_pairs "
                     "ORDER BY first, second")]
        view = JoinView(spec, members, pairs=pairs, engine=engine)
        snapshot_version = int(
            store_engine.get_meta("view", "snapshot_version") or "0")
        view._version = snapshot_version
        for batch_seq, batch in self.log_batches(after=snapshot_version):
            if batch_seq != view.version + 1:
                raise StorageError(
                    f"mutation log is not contiguous: snapshot at version "
                    f"{snapshot_version}, next logged batch is {batch_seq} "
                    f"but the view is at {view.version}")
            view.apply(batch, strategy=INCREMENTAL)
        return view


class ViewSubscription:
    """One live view→store wiring; created by :meth:`ViewStore.attach`."""

    def __init__(self, store: ViewStore, view,
                 snapshot_every: int | None) -> None:
        self._store = store
        self._view = view
        self._snapshot_every = snapshot_every
        self._since_snapshot = 0
        self._active = True
        self._callback = view.subscribe(self._on_batch)

    def _on_batch(self, view, batch, deltas) -> None:
        self._store.append(batch, view.version)
        self._since_snapshot += 1
        if (self._snapshot_every is not None
                and self._since_snapshot >= self._snapshot_every):
            self._store.snapshot(view)
            self._since_snapshot = 0

    @property
    def active(self) -> bool:
        """Whether batches are still being logged."""
        return self._active

    def detach(self) -> None:
        """Stop logging (idempotent); the stored state stays consistent.

        Also closes the store's engine when the store owns it (a store
        built on a borrowed :class:`StorageEngine` leaves it open).
        """
        if self._active:
            self._view.unsubscribe(self._callback)
            self._active = False
            self._store.close()
