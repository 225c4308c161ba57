"""User-visible counters, mirroring Hadoop/MapReduce job counters.

Mappers and reducers increment named counters through their
:class:`TaskContext`; the runner folds them into the job's
:class:`~repro.mapreduce.types.JobStats`.  The V-SMART-Join jobs use
counters to report, for example, the number of candidate pairs generated and
the number of stop words discarded, which the benchmarks surface alongside
the simulated run times.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator


class Counters:
    """A named-counter accumulator with dictionary-style access."""

    def __init__(self) -> None:
        self._values: Counter[str] = Counter()

    def increment(self, name: str, amount: int = 1) -> None:
        """Increase counter ``name`` by ``amount`` (which may be negative)."""
        self._values[name] += int(amount)

    def value(self, name: str) -> int:
        """Return the current value of ``name`` (zero when never set)."""
        return self._values.get(name, 0)

    def merge(self, other: "Counters") -> None:
        """Fold another counter set into this one."""
        self._values.update(other._values)

    def merge_dict(self, values: dict[str, int]) -> None:
        """Fold a plain counter snapshot (e.g. a phase task's) into this one."""
        self._values.update(values)

    def as_dict(self) -> dict[str, int]:
        """Return a plain dictionary snapshot of all counters."""
        return dict(self._values)

    def __getitem__(self, name: str) -> int:
        return self.value(name)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"Counters({dict(self._values)!r})"
