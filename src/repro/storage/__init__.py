"""Durable persistence tier: SQLite-backed stores for every artifact.

Everything the in-memory subsystems build — interned dictionaries,
serving indexes, maintained join views, finished join results — can be
saved to and loaded from a single-file SQLite database with **exact**
round-trips:

* :class:`~repro.storage.engine.StorageEngine` — the one SQLite wrapper
  (WAL, enforced foreign keys, versioned migrations, context-managed
  transactions) every store speaks through;
* :mod:`~repro.storage.codecs` — save/load for element dictionaries,
  corpora and serving indexes, parity-asserted against the originals;
* :class:`~repro.storage.viewstore.ViewStore` — snapshot + append-only
  mutation log; ``JoinView.recover(path)`` replays to the bit-identical
  pre-crash pair set;
* :class:`~repro.storage.resultstore.ResultStore` — stored join results
  with lazy pair iteration (``JoinResult.to_sqlite`` / ``from_sqlite``).

The convenient entry points live on the objects themselves
(``SimilarityIndex.save`` / ``.load``, ``JoinView.recover``,
``JoinResult.to_sqlite`` / ``.from_sqlite``, ``ServingNode.persist``);
this package is the machinery behind them.
"""

from repro.storage.codecs import (
    load_index,
    save_index,
)
from repro.storage.engine import (
    DEFAULT_BUSY_TIMEOUT,
    MIGRATIONS,
    SCHEMA_VERSION,
    StorageEngine,
    open_engine,
)
from repro.storage.resultstore import ResultStore, StoredPairSequence
from repro.storage.values import decode_value, encode_value
from repro.storage.viewstore import ViewStore, ViewSubscription

__all__ = [
    "DEFAULT_BUSY_TIMEOUT",
    "MIGRATIONS",
    "ResultStore",
    "SCHEMA_VERSION",
    "StorageEngine",
    "StoredPairSequence",
    "ViewStore",
    "ViewSubscription",
    "decode_value",
    "encode_value",
    "load_index",
    "open_engine",
    "save_index",
]
