"""The SQLite wrapper every durable artifact is stored through.

:class:`StorageEngine` owns one SQLite database file and applies the
schema discipline the storage tier standardises on:

* **pragmas** set at connect time: ``journal_mode=WAL`` (readers never
  block the writer, and committed transactions survive a crash),
  ``foreign_keys=ON`` (referential integrity is enforced, not assumed),
  ``synchronous=NORMAL`` (safe with WAL, far cheaper than ``FULL``) and a
  ``busy_timeout`` so concurrent openers wait instead of failing;
* **versioned migrations** through ``PRAGMA user_version``: the schema is
  a list of numbered steps, each applied in its own transaction exactly
  once, so a database written by an older release upgrades in place and a
  database written by a *newer* release is refused instead of corrupted;
* **context-managed transactions**: :meth:`transaction` runs
  ``BEGIN IMMEDIATE`` … ``COMMIT`` (rollback on any exception), which is
  the only way writes happen — the connection itself stays in autocommit
  so no implicit half-open transaction can hold the WAL hostage.

The engine is deliberately dumb about *what* is stored; the codecs
(:mod:`repro.storage.codecs`), the view store
(:mod:`repro.storage.viewstore`) and the result store
(:mod:`repro.storage.resultstore`) own their tables and speak to SQLite
only through this class.
"""

from __future__ import annotations

import os
import sqlite3
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.core.exceptions import StorageError

#: How long a locked database is retried before giving up, in seconds.
DEFAULT_BUSY_TIMEOUT = 30.0

#: The numbered schema steps.  Append-only: released steps are immutable,
#: new tables and indexes arrive as new entries.
MIGRATIONS: tuple[tuple[int, str], ...] = (
    (1, """
    -- Per-section key/value metadata (spec descriptions, format flags,
    -- snapshot versions).  Sections: 'store', 'index', 'view', 'result',
    -- 'dictionary'.
    CREATE TABLE meta (
        section TEXT NOT NULL,
        key     TEXT NOT NULL,
        value   TEXT,
        PRIMARY KEY (section, key)
    ) WITHOUT ROWID;

    -- An ElementDictionary: ids are the document-frequency order.
    CREATE TABLE dictionary_entries (
        element_id INTEGER PRIMARY KEY,
        element    TEXT NOT NULL UNIQUE,
        frequency  INTEGER NOT NULL
    );

    -- Corpora.  One file can hold several (the serving index's members,
    -- a view's snapshot corpus, a result's joined corpus), discriminated
    -- by the owning store; `seq` preserves insertion order, which the
    -- in-memory structures are rebuilt in.
    CREATE TABLE members (
        store     TEXT NOT NULL,
        seq       INTEGER NOT NULL,
        member_id TEXT NOT NULL,
        PRIMARY KEY (store, seq),
        UNIQUE (store, member_id)
    );
    CREATE TABLE member_elements (
        store        TEXT NOT NULL,
        member_seq   INTEGER NOT NULL,
        position     INTEGER NOT NULL,
        element      TEXT NOT NULL,
        multiplicity INTEGER NOT NULL,
        PRIMARY KEY (store, member_seq, position),
        FOREIGN KEY (store, member_seq)
            REFERENCES members (store, seq) ON DELETE CASCADE
    );

    -- The serving index's two maintained structures (paper section 3.2):
    -- Uni partials per member and the inverted postings.  `element` is the
    -- encoded raw element.  `index_interned` held the dense-id assignment
    -- of releases up to 3.19; it is written empty and never read.
    CREATE TABLE index_uni (
        member_seq INTEGER NOT NULL,
        position   INTEGER NOT NULL,
        value      REAL NOT NULL,
        PRIMARY KEY (member_seq, position)
    );
    CREATE TABLE index_interned (
        dense_id INTEGER PRIMARY KEY,
        element  TEXT NOT NULL UNIQUE
    );
    CREATE TABLE index_postings (
        posting_seq INTEGER PRIMARY KEY,
        element     TEXT NOT NULL,
        member_seq  INTEGER NOT NULL,
        effective   REAL NOT NULL,
        UNIQUE (element, member_seq)
    );

    -- A JoinView snapshot's materialized pair map ...
    CREATE TABLE view_pairs (
        first      TEXT NOT NULL,
        second     TEXT NOT NULL,
        similarity REAL NOT NULL,
        PRIMARY KEY (first, second)
    ) WITHOUT ROWID;

    -- ... and the append-only mutation log that carries it forward.
    -- `batch_seq` is the view version *after* the batch; recovery replays
    -- every batch with batch_seq > the snapshot's version, in order.
    CREATE TABLE mutation_log (
        batch_seq INTEGER NOT NULL,
        position  INTEGER NOT NULL,
        kind      TEXT NOT NULL CHECK (kind IN ('upsert', 'delete')),
        target    TEXT NOT NULL,
        payload   TEXT,
        PRIMARY KEY (batch_seq, position)
    );

    -- A JoinResult's pairs, in result order, point-queryable by pair.
    CREATE TABLE result_pairs (
        pair_seq   INTEGER PRIMARY KEY,
        first      TEXT NOT NULL,
        second     TEXT NOT NULL,
        similarity REAL NOT NULL,
        UNIQUE (first, second)
    );
    """),
)

#: The schema version this release reads and writes.
SCHEMA_VERSION = MIGRATIONS[-1][0]


class StorageEngine:
    """One durable SQLite database with the storage tier's discipline.

    Parameters
    ----------
    path:
        Database file path (created, with its schema, if missing).
        ``":memory:"`` is accepted for ephemeral use — WAL quietly degrades
        to the default journal there, everything else behaves identically.
    busy_timeout:
        Seconds a locked database is retried before raising.
    """

    def __init__(self, path: str | os.PathLike,
                 busy_timeout: float = DEFAULT_BUSY_TIMEOUT) -> None:
        self.path = os.fspath(path)
        try:
            # isolation_level=None: autocommit, so transaction boundaries
            # are exactly the explicit BEGIN/COMMIT of transaction().
            self._connection = sqlite3.connect(
                self.path, timeout=busy_timeout, isolation_level=None)
        except sqlite3.Error as error:
            raise StorageError(
                f"cannot open storage database {self.path!r}: {error}") from None
        self._in_transaction = False
        try:
            self._connection.execute(
                f"PRAGMA busy_timeout = {int(busy_timeout * 1000)}")
            self._connection.execute("PRAGMA journal_mode = WAL")
            self._connection.execute("PRAGMA synchronous = NORMAL")
            self._connection.execute("PRAGMA foreign_keys = ON")
            self._migrate()
        except sqlite3.DatabaseError as error:
            # A file that is not a database fails its first real read.
            self.close()
            raise StorageError(
                f"cannot open storage database {self.path!r}: {error}") from None

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "StorageEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._connection is None else "open"
        return f"StorageEngine(path={self.path!r}, {state})"

    @property
    def connection(self) -> sqlite3.Connection:
        """The live connection; raises once the engine is closed."""
        if self._connection is None:
            raise StorageError(
                f"storage engine for {self.path!r} is closed")
        return self._connection

    # -- schema --------------------------------------------------------------

    @property
    def schema_version(self) -> int:
        """The database's current ``PRAGMA user_version``."""
        return int(self.connection.execute(
            "PRAGMA user_version").fetchone()[0])

    def _migrate(self) -> None:
        current = self.schema_version
        if current > SCHEMA_VERSION:
            raise StorageError(
                f"database {self.path!r} has schema version {current}, newer "
                f"than this release's {SCHEMA_VERSION}; refusing to touch it")
        for version, script in MIGRATIONS:
            if version <= current:
                continue
            # One transaction per step, with the version bump inside it:
            # a crash mid-migration leaves the database exactly at the
            # previous version, never half-migrated.  (Not executescript —
            # that implicitly commits, escaping the transaction.)
            with self.transaction() as connection:
                for statement in _statements(script):
                    connection.execute(statement)
                connection.execute(f"PRAGMA user_version = {version}")

    # -- transactions --------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """``BEGIN IMMEDIATE`` … ``COMMIT``, rolling back on any exception.

        Nested use degrades gracefully: an inner ``transaction()`` joins
        the outer one (SQLite has no real nesting and savepoints would
        buy nothing here — every writer in this package is single-level).
        """
        connection = self.connection
        if self._in_transaction:
            yield connection
            return
        self._in_transaction = True
        try:
            connection.execute("BEGIN IMMEDIATE")
        except sqlite3.Error as error:
            self._in_transaction = False
            raise StorageError(f"cannot begin transaction: {error}") from None
        try:
            yield connection
        except BaseException:
            connection.execute("ROLLBACK")
            raise
        finally:
            self._in_transaction = False
        connection.execute("COMMIT")

    # -- statement helpers ---------------------------------------------------

    def execute(self, sql: str, parameters: Sequence = ()) -> sqlite3.Cursor:
        """Execute one statement on the engine's connection."""
        return self.connection.execute(sql, parameters)

    def executemany(self, sql: str,
                    rows: Sequence[Sequence]) -> sqlite3.Cursor:
        """Execute one statement per row."""
        return self.connection.executemany(sql, rows)

    def query(self, sql: str, parameters: Sequence = ()) -> list[tuple]:
        """Execute and fetch all rows."""
        return self.connection.execute(sql, parameters).fetchall()

    def query_one(self, sql: str,
                  parameters: Sequence = ()) -> tuple | None:
        """Execute and fetch the first row, or ``None``."""
        return self.connection.execute(sql, parameters).fetchone()

    # -- the meta table ------------------------------------------------------

    def set_meta(self, section: str, key: str, value: str | None) -> None:
        """Upsert one ``meta`` entry (inside the caller's transaction)."""
        self.execute(
            "INSERT INTO meta (section, key, value) VALUES (?, ?, ?) "
            "ON CONFLICT (section, key) DO UPDATE SET value = excluded.value",
            (section, key, value))

    def get_meta(self, section: str, key: str) -> str | None:
        """Read one ``meta`` entry (``None`` when absent)."""
        row = self.query_one(
            "SELECT value FROM meta WHERE section = ? AND key = ?",
            (section, key))
        return row[0] if row is not None else None

    def meta_section(self, section: str) -> dict[str, str | None]:
        """All ``meta`` entries of one section."""
        return dict(self.query(
            "SELECT key, value FROM meta WHERE section = ?", (section,)))


def _statements(script: str) -> Iterator[str]:
    """Split a migration script into executable statements.

    Comment lines are stripped first (they document this module, not the
    database, and may contain semicolons); statements then end at ``;``,
    which no statement of ours contains in a literal.
    """
    kept = "\n".join(line for line in script.splitlines()
                     if line.strip() and not line.strip().startswith("--"))
    for chunk in kept.split(";"):
        if chunk.strip():
            yield chunk.strip()


def open_engine(source: "str | os.PathLike | StorageEngine",
                ) -> tuple["StorageEngine", bool]:
    """Resolve a path-or-engine argument; returns ``(engine, owned)``.

    Every storage entry point accepts either a filesystem path (the engine
    is created and must be closed by the caller that receives ``owned ==
    True``) or an already-open :class:`StorageEngine` (borrowed — left
    open).
    """
    if isinstance(source, StorageEngine):
        return source, False
    return StorageEngine(source), True
