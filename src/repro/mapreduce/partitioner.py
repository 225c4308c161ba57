"""Partitioners: assignment of reduce keys to reducers / machines.

The default is a stable hash partitioner.  Python's built-in ``hash`` is
randomised per process for strings, so a content-based hash is used instead;
this keeps the simulated per-machine loads (and therefore the simulated run
times) identical across runs, which the benchmarks rely on.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Hashable

Partitioner = Callable[[Hashable, int], int]


def stable_hash(value: Hashable, salt: str = "") -> int:
    """A deterministic, process-independent 64-bit hash of ``value``.

    The value is rendered through ``repr``; record keys in this library are
    tuples of strings, integers and floats, for which ``repr`` is stable.
    """
    digest = hashlib.blake2b(f"{salt}|{value!r}".encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def hash_partitioner(key: Hashable, num_partitions: int) -> int:
    """The default partitioner: stable hash of the whole key."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    return stable_hash(key) % num_partitions
