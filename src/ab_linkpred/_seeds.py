"""Deterministic seed derivation shared by all randomized stages, and the
checks that every number arriving from outside goes through: as_int for
counts and seeds, as_real for real numbers, and as_unit, its [0, 1] case,
for score thresholds."""

import hashlib
import numbers
import sys


def derive_seed(*parts) -> int:
    """Stable 63-bit seed derived from the given parts (ints or strings).

    Hash-based so that unrelated stages (neighbor shuffles, balancing,
    splitting, per-tree sampling) get independent streams and results never
    depend on process, platform, or scheduling order.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def as_int(value, name: str, low: int | None = None) -> int:
    """value as a Python int (numpy integers do not serialize to JSON);
    ValueError unless it is an integer, which a bool is not, and at least
    low when low is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def as_real(value, name: str, want: str, ok) -> int | float:
    """value as a Python int or float (a numpy number is kept as one, an
    int stays an int); ValueError naming want unless it is a real number
    within the float range, which a bool, a string, NaN, an infinity and an
    integer such as 10**400 are not, and ok holds for it."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        number = int(value) if isinstance(value, numbers.Integral) else float(value)
        # Compared as Python numbers, so neither side overflows or warns.
        if abs(number) <= sys.float_info.max and ok(number):
            return number
    raise ValueError(f"{name} must be {want}, got {value!r}")


def as_unit(value, name: str) -> float:
    """value as a Python float; ValueError unless it is a number in [0, 1]
    (see as_real)."""
    return float(as_real(value, name, "a number in [0, 1]", lambda x: 0 <= x <= 1))
