"""The one content hash every tier routes and ranks by.

Python's built-in ``hash`` is randomised per process for strings, so a
content-based hash is used instead.  It places reduce keys on reducers
(:mod:`repro.mapreduce.partitioner`), members on serving shards
(:mod:`repro.serving.service`) and orders elements for VCL's prefixes and
V-SMART's fingerprints, so partitions, shard assignments and simulated run
times are identical across runs and processes.

It lives in :mod:`repro.core` because the serving tier routes by it
without loading the MapReduce simulator.  This module imports nothing
from :mod:`repro`.
"""

from __future__ import annotations

import hashlib
from typing import Hashable


def stable_hash(value: Hashable, salt: str = "") -> int:
    """A deterministic, process-independent 64-bit hash of ``value``.

    The value is rendered through ``repr``; record keys in this library are
    tuples of strings, integers and floats, for which ``repr`` is stable.
    """
    digest = hashlib.blake2b(f"{salt}|{value!r}".encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")
