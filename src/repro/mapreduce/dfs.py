"""A tiny in-memory stand-in for the distributed file system.

Job inputs and outputs are :class:`Dataset` objects: named, immutable
sequences of records.  Real MapReduce reads partitioned files from GFS/HDFS;
the simulator only needs the record stream and each record's approximate
byte size, so a dataset is a tuple of records plus a tuple of their sizes.
A record is never walked twice: a job's output dataset is handed the sizes
its records were emitted with (a reducer's output, or a map-only job's
``(key, value, secondary)`` emissions), a driver that knows its input's
shape hands them over too (the V-SMART pipelines' interned columns), and a
dataset built without sizes computes them, with the generic sizer, the
first time a job reads it and keeps them.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.exceptions import JobConfigurationError
from repro.mapreduce.types import RecordColumns, estimate_record_bytes


class Dataset:
    """An immutable, named sequence of records.

    Datasets are cheap wrappers; records are whatever Python objects the
    jobs produce (``InputTuple``, a map-only job's ``(key, value,
    secondary)`` tuples, ...).
    ``record_bytes`` hands over the sizes the records were already given
    (one per record, or :class:`~repro.core.exceptions.JobConfigurationError`).
    Records a job held column-wise (a
    :class:`~repro.mapreduce.types.RecordColumns`) are kept as they are.
    """

    __slots__ = ("_name", "_records", "_record_bytes")

    def __init__(self, name: str, records: Iterable[Any],
                 record_bytes: Iterable[int] | None = None) -> None:
        self._name = name
        self._records: Sequence[Any] = (
            records if isinstance(records, RecordColumns) else tuple(records))
        self._record_bytes = None if record_bytes is None else tuple(record_bytes)
        if record_bytes is not None and len(self._record_bytes) != len(self._records):
            raise JobConfigurationError(
                f"dataset {name!r}: {len(self._record_bytes)} record sizes "
                f"for {len(self._records)} records")

    @classmethod
    def from_records(cls, records: Iterable[Any], name: str = "dataset") -> "Dataset":
        """Build a dataset from any iterable of records."""
        return cls(name, records)

    @property
    def name(self) -> str:
        """The dataset's human-readable name (used in stats and logs)."""
        return self._name

    @property
    def records(self) -> Sequence[Any]:
        """The records as an immutable sequence."""
        return self._records

    @property
    def record_bytes(self) -> Sequence[int]:
        """Each record's estimated size, computed on the first read and kept."""
        if self._record_bytes is None:
            self._record_bytes = tuple(map(estimate_record_bytes, self._records))
        return self._record_bytes

    @property
    def total_bytes(self) -> int:
        """Estimated serialised size of the whole dataset."""
        return sum(self.record_bytes)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._records)

    def __getitem__(self, index: int) -> Any:
        return self._records[index]

    def __repr__(self) -> str:
        return f"Dataset(name={self._name!r}, records={len(self._records)})"

    def map_records(self, transform: Callable[[Any], Any],
                    name: str | None = None) -> "Dataset":
        """Return a new dataset with ``transform`` applied to every record."""
        return Dataset(name or f"{self._name}:mapped",
                       (transform(record) for record in self._records))

    def filter_records(self, predicate: Callable[[Any], bool],
                       name: str | None = None) -> "Dataset":
        """Return a new dataset keeping only records matching ``predicate``."""
        return Dataset(name or f"{self._name}:filtered",
                       (record for record in self._records if predicate(record)))

    def concat(self, other: "Dataset", name: str | None = None) -> "Dataset":
        """Return the concatenation of this dataset and ``other``."""
        return Dataset(name or f"{self._name}+{other._name}",
                       list(self._records) + list(other._records))
