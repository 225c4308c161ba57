"""Out-of-core grouping: sorted spill runs merged back with ``heapq.merge``.

:class:`ExternalGrouper` is where the
:class:`~repro.mapreduce.backends.DiskShuffleBackend` holds the shuffle, in
place of the runner's in-memory spill dictionaries.  It is fed the same
columns the in-memory shuffle partitions (:meth:`ExternalGrouper.add_columns`)
and buffers them as records up to a byte budget, spills sorted *runs* to
temporary files whenever the buffer would exceed the budget, and streams
the groups back with a k-way merge, in the reduce task's group form — the
classic external merge sort that lets a shuffle handle corpora far larger
than the buffer.

The hard part is determinism: the in-memory shuffle groups records by
*first-occurrence key order* within each partition and preserves the
emission order inside every group, and the parity contract requires the
external path to reproduce that order bit for bit.  Sorting runs by key
would break it (keys may not even be mutually comparable).  Instead every
record gets a global emission sequence number, and every ``(partition,
key)`` group remembers the sequence number of its *first* record.  Runs
are sorted and merged on ``(partition, first_seq, seq)``:

* ``partition`` ascending reproduces the reducer's ``sorted(partitions)``
  sweep;
* ``first_seq`` ascending reproduces first-occurrence key order within the
  partition;
* ``seq`` ascending reproduces emission order within the group — and is
  globally unique, so the merge never falls through to comparing records.

Only the ``(partition, key) -> first_seq`` map stays in memory; this is
the external shuffle's key index (Hadoop keeps the same thing), so the
byte budget covers the buffered record payloads, not the key directory.
"""

from __future__ import annotations

import heapq
import os
import pickle
import shutil
import tempfile
from itertools import repeat
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from repro.core.exceptions import BackendError
from repro.mapreduce.types import KeyValue, estimate_record_bytes, sized_key_value

#: A buffered/spilled entry: ``(partition, first_seq, seq, record)``.
_Entry = tuple[int, int, int, KeyValue]


def _entry_order(entry: _Entry) -> tuple[int, int, int]:
    """Merge order: never compares the record payload (``seq`` is unique)."""
    return (entry[0], entry[1], entry[2])


def _group_of(partition: int, records: list[KeyValue]
              ) -> tuple[int, Hashable, list, list[int], list]:
    """One merged group's records as the reduce task's group form."""
    return (partition, records[0].key, [record.value for record in records],
            [record.size_bytes for record in records],
            [record.secondary for record in records])


class ExternalGrouper:
    """Group partitioned records under a byte budget, spilling sorted runs.

    ``memory_budget_bytes`` bounds the buffered record payload: a record
    whose addition would push the buffer past the budget first flushes the
    buffer to a sorted run file (a single record larger than the whole
    budget occupies a buffer of one and is flushed by the next addition —
    the ceiling is ``max(budget, largest_record)``).  ``merge_fan_in``
    bounds how many runs one merge reads at a time; more runs than that
    trigger intermediate merge passes, exactly like a disk-based DBMS
    operator.

    The grouper owns a private temporary directory (created lazily under
    ``temp_dir`` or the system default) and removes it in :meth:`close`;
    always close, ideally via ``with``.  A directory that cannot be created
    or a run file that cannot be written raises
    :class:`~repro.core.exceptions.BackendError` naming it.
    """

    def __init__(self, memory_budget_bytes: int, *,
                 temp_dir: str | None = None,
                 merge_fan_in: int = 8) -> None:
        if int(memory_budget_bytes) < 1:
            raise BackendError(
                f"ExternalGrouper memory_budget_bytes must be at least 1 "
                f"byte, got {memory_budget_bytes!r}")
        if int(merge_fan_in) < 2:
            raise BackendError(
                f"ExternalGrouper merge_fan_in must be at least 2, "
                f"got {merge_fan_in!r}")
        self.memory_budget_bytes = int(memory_budget_bytes)
        self.merge_fan_in = int(merge_fan_in)
        self._parent_dir = temp_dir
        self._directory: str | None = None
        self._buffer: list[_Entry] = []
        self._buffered_bytes = 0
        self._first_seq: dict[tuple[int, Hashable], int] = {}
        self._next_seq = 0
        self._runs: list[str] = []
        self._run_counter = 0
        self._closed = False
        #: Physical execution telemetry.  ``runs_written`` counts every run
        #: file, including intermediate merge outputs; ``bytes_spilled`` is
        #: the total bytes written to disk across all of them;
        #: ``spilled_records`` counts records in initial spills only (the
        #: records that actually left memory); ``merge_passes`` counts
        #: merge sweeps over run files (0 when everything stayed in
        #: memory).
        self.telemetry: dict[str, int] = {
            "runs_written": 0,
            "bytes_spilled": 0,
            "merge_passes": 0,
            "peak_buffer_bytes": 0,
            "spilled_records": 0,
        }

    # -- building -------------------------------------------------------------

    def add(self, partition: int, key_value: KeyValue) -> None:
        """Buffer one record, spilling a sorted run when over budget.

        The buffer is charged the size the record was emitted with; a
        hand-built record that carries none is sized here.
        """
        if self._closed:
            raise BackendError("ExternalGrouper is closed")
        size = key_value.size_bytes or estimate_record_bytes(key_value)
        if self._buffer and self._buffered_bytes + size > self.memory_budget_bytes:
            self._flush_run()
        seq = self._next_seq
        self._next_seq = seq + 1
        first_seq = self._first_seq.setdefault((partition, key_value.key), seq)
        self._buffer.append((partition, first_seq, seq, key_value))
        self._buffered_bytes += size
        if self._buffered_bytes > self.telemetry["peak_buffer_bytes"]:
            self.telemetry["peak_buffer_bytes"] = self._buffered_bytes

    def add_columns(self, partition_of: Callable[[Hashable], int],
                    keys: Sequence, values: Sequence,
                    secondaries: Sequence | None,
                    sizes: int | Sequence[int]) -> None:
        """Buffer a task's output columns, row by row in emission order.

        Row ``i`` is the record ``(keys[i], values[i], secondaries[i])`` of
        size ``sizes[i]`` (or the one size), buffered in the partition
        ``partition_of(keys[i])``.  Each is buffered (and pickled into a
        run) as a ``KeyValue`` carrying its size.
        """
        add = self.add
        for key, value, secondary, size in zip(
                keys, values,
                repeat(None) if secondaries is None else secondaries,
                repeat(sizes) if type(sizes) is int else sizes):
            add(partition_of(key), sized_key_value(key, value, secondary, size))

    def _flush_run(self) -> None:
        if not self._buffer:
            return
        self._buffer.sort(key=_entry_order)
        self._write_run(self._buffer)
        self.telemetry["spilled_records"] += len(self._buffer)
        self._buffer = []
        self._buffered_bytes = 0

    def _write_run(self, entries: Iterable[_Entry]) -> str:
        """Write the next run file: the entries, then their count (the
        trailer that tells a whole run from one that lost its tail).

        A write the file system refuses (no space left, the directory gone)
        raises ``BackendError`` naming the run file; :meth:`close` still
        removes whatever was written.
        """
        path = self._new_run_path()
        count = 0
        try:
            with open(path, "wb") as handle:
                for entry in entries:
                    pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
                    count += 1
                pickle.dump(count, handle, protocol=pickle.HIGHEST_PROTOCOL)
            size = os.path.getsize(path)
        except OSError as error:
            raise BackendError(
                f"cannot write spill run {path!r}: {error}") from error
        self.telemetry["runs_written"] += 1
        self.telemetry["bytes_spilled"] += size
        self._runs.append(path)
        return path

    def _new_run_path(self) -> str:
        if self._directory is None:
            try:
                self._directory = tempfile.mkdtemp(prefix="repro-shuffle-",
                                                   dir=self._parent_dir)
            except OSError as error:
                where = self._parent_dir or tempfile.gettempdir()
                raise BackendError(
                    f"cannot create a spill directory under {where!r}: "
                    f"{error}") from error
        path = os.path.join(self._directory, f"run-{self._run_counter:06d}.pkl")
        self._run_counter += 1
        return path

    # -- consuming ------------------------------------------------------------

    def iter_groups(self) -> Iterator[tuple[int, Hashable, list, list[int], list]]:
        """Yield ``(partition, key, values, sizes, secondaries)`` in the
        serial shuffle's order: the group's values in emission order, the
        size each record carries and each record's secondary key."""
        current: tuple[int, int] | None = None
        partition = 0
        records: list[KeyValue] = []
        for entry_partition, first_seq, _seq, key_value in self._merged_entries():
            group = (entry_partition, first_seq)
            if group != current:
                if records:
                    yield _group_of(partition, records)
                current = group
                partition = entry_partition
                records = []
            records.append(key_value)
        if records:
            yield _group_of(partition, records)

    def _merged_entries(self) -> Iterator[_Entry]:
        if not self._runs:
            # Fast path: everything fit in the buffer, nothing hit disk.
            self._buffer.sort(key=_entry_order)
            buffer, self._buffer = self._buffer, []
            self._buffered_bytes = 0
            return iter(buffer)
        self._flush_run()
        runs = list(self._runs)
        while len(runs) > self.merge_fan_in:
            batch, runs = runs[:self.merge_fan_in], runs[self.merge_fan_in:]
            runs.append(self._merge_batch(batch))
        self.telemetry["merge_passes"] += 1
        return heapq.merge(*(self._read_run(path) for path in runs),
                           key=_entry_order)

    def _merge_batch(self, batch: list[str]) -> str:
        """Merge a batch of runs into one longer run file."""
        path = self._write_run(
            heapq.merge(*(self._read_run(stale) for stale in batch),
                        key=_entry_order))
        for stale in batch:
            os.remove(stale)
        self._runs = [run for run in self._runs if run not in batch]
        self.telemetry["merge_passes"] += 1
        return path

    @staticmethod
    def _read_run(path: str) -> Iterator[_Entry]:
        """Stream the entries of one run file, checking it is whole.

        A run that cannot be opened, ends before its trailer (even cleanly,
        between two entries), disagrees with it, goes on after it or does
        not unpickle raises ``BackendError`` naming the file: a damaged run
        must fail the job, never be merged as a shorter one.
        """
        count = 0
        try:
            handle = open(path, "rb")
        except OSError as error:
            raise BackendError(
                f"cannot read spill run {path!r}: {error}") from error
        with handle:
            while True:
                try:
                    entry = pickle.load(handle)
                except Exception as error:
                    # EOFError at an entry boundary, UnpicklingError inside
                    # one, whatever else damaged bytes unpickle into.
                    raise BackendError(
                        f"spill run {path!r} is truncated or corrupt after "
                        f"{count} entries: {error!r}") from error
                if type(entry) is int:
                    if entry != count or handle.read(1):
                        raise BackendError(
                            f"spill run {path!r} is corrupt: {count} entries "
                            f"precede a trailer counting {entry}, or data follows it")
                    return
                count += 1
                yield entry

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Drop all state and remove the temporary directory (idempotent)."""
        self._closed = True
        self._buffer = []
        self._buffered_bytes = 0
        self._first_seq = {}
        self._runs = []
        if self._directory is not None:
            shutil.rmtree(self._directory, ignore_errors=True)
            self._directory = None

    def __enter__(self) -> "ExternalGrouper":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ExternalGrouper(memory_budget_bytes={self.memory_budget_bytes}, "
                f"merge_fan_in={self.merge_fan_in}, "
                f"runs={len(self._runs)})")
