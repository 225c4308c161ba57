"""Out-of-core grouping: sorted spill runs of group blocks, merged back.

:class:`ExternalGrouper` is where the
:class:`~repro.mapreduce.backends.DiskShuffleBackend` holds the shuffle, in
place of the runner's in-memory spill dictionaries.  It is fed the same
columns the in-memory shuffle partitions (:meth:`ExternalGrouper.add_columns`)
and buffers them as *group blocks* — per ``(partition, key)``, that key's
``(values, sizes, secondaries)`` columns — up to a byte budget, spills the
blocks as a sorted *run* to a temporary file whenever the buffer would
exceed the budget, and streams the groups back with a k-way merge, in the
reduce task's group form — the classic external merge sort that lets a
shuffle handle corpora far larger than the buffer.

The hard part is determinism: the in-memory shuffle groups records by
*first-occurrence key order* within each partition and preserves the
emission order inside every group, and the parity contract requires the
external path to reproduce that order bit for bit.  Sorting runs by key
would break it (keys may not even be mutually comparable).  Instead every
record gets a global emission sequence number, every ``(partition, key)``
group remembers the sequence number of its *first* record, and every flush
of the buffer is numbered.  A run holds one block per key of its flush,
and runs are sorted and merged on ``(partition, first_seq, flush)``:

* ``partition`` ascending reproduces the reducer's ``sorted(partitions)``
  sweep;
* ``first_seq`` ascending reproduces first-occurrence key order within the
  partition;
* ``flush`` ascending puts a key's blocks in the order they were buffered,
  so concatenating them reproduces emission order within the group — and
  ``(first_seq, flush)`` is unique, so the merge never falls through to
  comparing keys or values.

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
from collections import defaultdict
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence

from repro.core.exceptions import BackendError
from repro.core.knobs import INT, check
from repro.mapreduce.types import concat_column

#: One key's records from one flush, as a run holds them: ``(partition,
#: first_seq, flush, key, values, sizes, secondaries)``; ``sizes`` is one
#: declared ``int`` or a size per value, ``secondaries`` ``None`` or a
#: secondary key per value.
_Block = tuple[int, int, int, Hashable, list, Any, Any]

#: Merge order: never compares a key or a payload (``(first_seq, flush)`` is
#: unique).
_block_order = itemgetter(0, 1, 2)


def _group_of(blocks: list[_Block]) -> tuple[int, Hashable, list, Any, Any]:
    """One key's blocks, in flush order, as the reduce task's group form: a
    size or secondary-key column that is one value in every block stays
    that value."""
    partition, _first_seq, _flush, key, values, sizes, secondaries = blocks[0]
    if len(blocks) == 1:
        return partition, key, values, sizes, secondaries
    counts = [len(block[4]) for block in blocks]
    return (partition, key,
            list(chain.from_iterable(block[4] for block in blocks)),
            concat_column([block[5] for block in blocks], counts),
            concat_column([block[6] for block in blocks], counts))


class ExternalGrouper:
    """Group partitioned records under a byte budget, spilling sorted runs.

    ``memory_budget_bytes`` bounds the buffered record payload, record by
    record: a record whose addition would push the buffer past the budget
    first flushes the buffer to a sorted run file of group blocks (a single
    record larger than the whole budget occupies a buffer of one and is
    flushed by the next addition — the ceiling is ``max(budget,
    largest_record)``).  ``merge_fan_in`` bounds how many runs one merge
    reads at a time; more runs than that trigger intermediate merge passes,
    exactly like a disk-based DBMS operator.

    The grouper owns a private temporary directory (created lazily under
    ``temp_dir`` or the system default) and removes it in :meth:`close`;
    always close, ideally via ``with``.  A directory that cannot be created
    or a run file that cannot be written raises
    :class:`~repro.core.exceptions.BackendError` naming it.
    """

    def __init__(self, memory_budget_bytes: int, *,
                 temp_dir: str | None = None,
                 merge_fan_in: int = 8) -> None:
        self.memory_budget_bytes = check(memory_budget_bytes, INT,
                                         "memory_budget_bytes", BackendError,
                                         at_least=1)
        self.merge_fan_in = check(merge_fan_in, INT, "merge_fan_in",
                                  BackendError, at_least=2)
        self._parent_dir = temp_dir
        self._directory: str | None = None
        #: ``(partition, key) -> [first_seq, values, sizes, secondaries]``.
        self._buffer: dict[tuple[int, Hashable], list] = {}
        self._buffered_bytes = 0
        self._buffered_records = 0
        self._first_seq: dict[tuple[int, Hashable], int] = {}
        self._next_seq = 0
        self._flushes = 0
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

    def add_columns(self, partition_of: Callable[[Hashable], int],
                    keys: Sequence, values: Sequence,
                    secondaries: Sequence | None,
                    sizes: int | Sequence[int]) -> None:
        """Buffer a task's output columns in emission order.

        Row ``i`` is the record ``(keys[i], values[i], secondaries[i])`` of
        size ``sizes[i]`` (or the one size), in the partition
        ``partition_of(keys[i])`` — a function of the key, asked once per
        key per flush.  The budget is checked record by record, and a run
        is flushed before the record that would cross it; between two
        flushes the rows are buffered a key at a time, as group blocks.
        """
        if self._closed:
            raise BackendError("ExternalGrouper is closed")
        rows = len(keys)
        budget = self.memory_budget_bytes
        start = 0
        total = rows * sizes if type(sizes) is int else sum(sizes)
        if self._buffered_bytes + total > budget:
            for row, size in enumerate([sizes] * rows if type(sizes) is int
                                       else sizes):
                if (self._buffered_records
                        and self._buffered_bytes + size > budget):
                    self._hold(partition_of, keys, values, secondaries, sizes,
                               start, row)
                    self._flush_run()
                    start = row
                self._buffered_bytes += size
                self._buffered_records += 1
        else:
            self._buffered_bytes += total
            self._buffered_records += rows
        self._hold(partition_of, keys, values, secondaries, sizes, start, rows)
        self._next_seq += rows

    def _hold(self, partition_of: Callable[[Hashable], int],
              keys: Sequence, values: Sequence, secondaries: Sequence | None,
              sizes: int | Sequence[int], start: int, end: int) -> None:
        """Buffer rows ``start:end``, already counted against the budget, a
        key at a time."""
        rows_of: defaultdict[Any, list[int]] = defaultdict(list)
        for row in range(start, end):
            rows_of[keys[row]].append(row)
        seq = self._next_seq
        value_at = values.__getitem__
        size_at = None if type(sizes) is int else sizes.__getitem__
        secondary_at = None if secondaries is None else secondaries.__getitem__
        buffer, first_seq = self._buffer, self._first_seq
        for key, rows in rows_of.items():
            place = (partition_of(key), key)
            block_values = list(map(value_at, rows))
            block_sizes = sizes if size_at is None else list(map(size_at, rows))
            block_secondaries = (None if secondary_at is None
                                 else list(map(secondary_at, rows)))
            block = buffer.get(place)
            if block is None:
                buffer[place] = [first_seq.setdefault(place, seq + rows[0]),
                                 block_values, block_sizes, block_secondaries]
            else:  # a key fed again before the next flush
                counts = (len(block[1]), len(rows))
                block[2] = concat_column((block[2], block_sizes), counts)
                block[3] = concat_column((block[3], block_secondaries), counts)
                block[1].extend(block_values)
        if self._buffered_bytes > self.telemetry["peak_buffer_bytes"]:
            self.telemetry["peak_buffer_bytes"] = self._buffered_bytes

    def _buffered_blocks(self) -> list[_Block]:
        """Empty the buffer into its blocks, sorted in merge order."""
        flush = self._flushes
        self._flushes = flush + 1
        blocks = sorted(
            ((partition, first_seq, flush, key, values, sizes, secondaries)
             for (partition, key), (first_seq, values, sizes, secondaries)
             in self._buffer.items()),
            key=_block_order)
        self._buffer = {}
        self._buffered_bytes = self._buffered_records = 0
        return blocks

    def _flush_run(self) -> None:
        if not self._buffer:
            return
        self.telemetry["spilled_records"] += self._buffered_records
        self._write_run(self._buffered_blocks())

    def _write_run(self, blocks: Iterable[_Block]) -> str:
        """Write the next run file: the blocks, then their count (the
        trailer that tells a whole run from one that lost its tail).

        A write the file system refuses (no space left, the directory gone)
        raises ``BackendError`` naming the run file; :meth:`close` still
        removes whatever was written.
        """
        path = self._new_run_path()
        count = 0
        try:
            with open(path, "wb") as handle:
                for block in blocks:
                    pickle.dump(block, handle, protocol=pickle.HIGHEST_PROTOCOL)
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

    def iter_groups(self) -> Iterator[tuple[int, Hashable, list, Any, Any]]:
        """Yield ``(partition, key, values, sizes, secondaries)`` in the
        serial shuffle's order, values in emission order: each key's blocks,
        concatenated."""
        blocks: list[_Block] = []
        for block in self._merged_blocks():
            if blocks and block[1] != blocks[0][1]:
                yield _group_of(blocks)
                blocks = []
            blocks.append(block)
        if blocks:
            yield _group_of(blocks)

    def _merged_blocks(self) -> Iterator[_Block]:
        if not self._runs:
            # Fast path: everything fit in the buffer, nothing hit disk.
            return iter(self._buffered_blocks())
        self._flush_run()
        runs = list(self._runs)
        while len(runs) > self.merge_fan_in:
            batch, runs = runs[:self.merge_fan_in], runs[self.merge_fan_in:]
            runs.append(self._merge_batch(batch))
        self.telemetry["merge_passes"] += 1
        return heapq.merge(*(self._read_run(path) for path in runs),
                           key=_block_order)

    def _merge_batch(self, batch: list[str]) -> str:
        """Merge a batch of runs into one longer run file."""
        path = self._write_run(
            heapq.merge(*(self._read_run(stale) for stale in batch),
                        key=_block_order))
        for stale in batch:
            os.remove(stale)
        self._runs = [run for run in self._runs if run not in batch]
        self.telemetry["merge_passes"] += 1
        return path

    @staticmethod
    def _read_run(path: str) -> Iterator[_Block]:
        """Stream the blocks of one run file, checking it is whole.

        A run that cannot be opened, ends before its trailer (even cleanly,
        between two blocks), disagrees with it, goes on after it or does
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
                    block = pickle.load(handle)
                except Exception as error:
                    # EOFError at a block boundary, UnpicklingError inside
                    # one, whatever else damaged bytes unpickle into.
                    raise BackendError(
                        f"spill run {path!r} is truncated or corrupt after "
                        f"{count} blocks: {error!r}") from error
                if type(block) is int:
                    if block != count or handle.read(1):
                        raise BackendError(
                            f"spill run {path!r} is corrupt: {count} blocks "
                            f"precede a trailer counting {block}, or data follows it")
                    return
                count += 1
                yield block

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Drop all state and remove the temporary directory (idempotent)."""
        self._closed = True
        self._buffer = {}
        self._buffered_bytes = self._buffered_records = 0
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
