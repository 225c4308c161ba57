"""Partitioners: assignment of reduce keys to reducers / machines.

The default is a stable hash partitioner over
:func:`repro.core.hashing.stable_hash` (re-exported here): Python's
built-in ``hash`` is randomised per process for strings, and a content
hash keeps the simulated per-machine loads (and therefore the simulated run
times) identical across runs, which the benchmarks rely on.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.core.hashing import stable_hash

Partitioner = Callable[[Hashable, int], int]


def hash_partitioner(key: Hashable, num_partitions: int) -> int:
    """The default partitioner: stable hash of the whole key."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    return stable_hash(key) % num_partitions
