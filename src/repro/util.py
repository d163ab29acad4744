"""Small shared helpers."""

from __future__ import annotations

#: ``stable_hash(n)`` of an int ``n`` is ``n * INT_HASH_MULTIPLIER & HASH_MASK``;
#: callers that hash many int keys inline it with these.
INT_HASH_MULTIPLIER = 0x9E3779B97F4A7C15
HASH_MASK = 0xFFFFFFFFFFFFFFFF


def estimate_bytes(obj: object) -> int:
    """Logical wire size of a record, used when the caller gives no size.

    This is the *paper-scale* size charged to the cost model (e.g. an
    80-byte character array stays 80 bytes), not Python's in-memory size.
    """
    if isinstance(obj, bool):
        return 1
    if isinstance(obj, int):
        return 8
    if isinstance(obj, float):
        return 8
    if isinstance(obj, str):
        return max(1, len(obj))
    if isinstance(obj, bytes):
        return max(1, len(obj))
    if isinstance(obj, (tuple, list)):
        return 8 + sum(estimate_bytes(item) for item in obj)
    if isinstance(obj, dict):
        return 8 + sum(
            estimate_bytes(k) + estimate_bytes(v) for k, v in obj.items()
        )
    return 64


def stable_hash(value: object) -> int:
    """A deterministic, seed-independent hash for partitioning.

    Python randomizes ``hash(str)`` per process; partition placement (and
    therefore colliding-object counts) must be reproducible across runs.
    A plain ``int`` inside a tuple is hashed inline rather than by a
    recursive call; the value is the same either way.
    """
    if isinstance(value, int):
        return value * INT_HASH_MULTIPLIER & HASH_MASK
    if isinstance(value, tuple):
        acc = 0x345678
        for item in value:
            if type(item) is int:
                item_hash = item * INT_HASH_MULTIPLIER & HASH_MASK
            else:
                item_hash = stable_hash(item)
            acc = (acc ^ item_hash) * 0x100000001B3 & HASH_MASK
        return acc
    data = value if isinstance(value, bytes) else str(value).encode("utf-8")
    acc = 0xCBF29CE484222325
    for byte in data:
        acc = ((acc ^ byte) * 0x100000001B3) & HASH_MASK
    return acc
