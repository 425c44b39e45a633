"""Deterministic seed derivation shared by all randomized stages, and the
integer check that seeds and feature settings share."""

import hashlib
import numbers


def derive_seed(*parts) -> int:
    """Stable 63-bit seed derived from the given parts (ints or strings).

    Hash-based so that unrelated stages (neighbor shuffles, balancing,
    splitting, per-tree sampling) get independent streams and results never
    depend on process, platform, or scheduling order.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def as_int(value, name: str) -> int:
    """value as a Python int (numpy integers do not serialize to JSON);
    ValueError unless it is an integer, which a bool is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)
