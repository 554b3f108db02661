"""Stable value hashing shared by shard routing and statistics sketches.

Python's built-in ``hash()`` is salted per process (PYTHONHASHSEED), so
anything derived from it — shard selection, sketch contents — would change
from run to run and break both deterministic benchmarks and any on-disk
artifact that encodes a placement decision.  Every component that needs a
*placement* or *sketch* hash therefore uses this module: a CRC32 over a
canonical text encoding of the value, identical across processes,
platforms, and restarts.
"""

from __future__ import annotations

import zlib

__all__ = ["stable_hash", "stable_hashes", "shard_of", "HASH_SPACE"]

#: The hash range: CRC32 values are uniform over 32 bits.
HASH_SPACE = 2 ** 32


def stable_hash(value) -> int:
    """A salt-free 32-bit hash of ``value``, stable across processes.

    ``repr`` gives a canonical text form for the scalar types records
    carry (ints, floats, strings, bools, None); ``backslashreplace``
    keeps arbitrary unicode encodable.
    """
    return zlib.crc32(repr(value).encode("utf-8", "backslashreplace"))


def stable_hashes(values) -> set:
    """``{stable_hash(value) for value in values}``, each distinct text
    hashed once."""
    return {zlib.crc32(text.encode("utf-8", "backslashreplace"))
            for text in set(map(repr, values))}


def shard_of(value, shards: int) -> int:
    """Deterministic shard index for a partition-key value."""
    return stable_hash(value) % shards
