"""Shared numeric helpers: seed splitting, threshold arithmetic and strict JSON."""

import json
import math
from fractions import Fraction

MASK64 = (1 << 64) - 1

# SplitMix64 increment and mixing constants.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def spawn_seed(master: int, index: int) -> int:
    """Derive child seed number `index` from a 64-bit master seed.

    SplitMix64 output function; stable across Python versions (unlike hash()),
    so serial and parallel replicate schedules draw identical streams.
    """
    z = (master + (index + 1) * _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return (z ^ (z >> 31)) & MASK64


def check_epsilon(eps: float) -> float:
    """eps, if it lies in [0, 1]; ValueError otherwise, NaN included."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("epsilon out of range [0, 1]")
    return eps


def check_seed(seed: int) -> int:
    """seed, if it is an int in [0, 2**64); TypeError for any other type,
    bool included, and ValueError for an int outside that range."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise TypeError(f"seed must be an int, got {type(seed).__name__}")
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def ceil_recip(eps: float) -> int:
    """Least integer not less than 1/eps, exact on the binary value of eps.

    Uses rational arithmetic so the result is consistent with strict
    comparisons like k*eps < 1 evaluated exactly; float division alone can
    land on the wrong side of an integer for thresholds near 1/k.
    """
    if eps <= 0:
        raise ValueError("ceil_recip requires eps > 0")
    return math.ceil(Fraction(1) / Fraction(eps))


def strict_json(doc) -> str:
    """doc as strict JSON (RFC 8259): sorted keys, indent 2, a final newline.

    A non-finite float, such as the infinite radius of a single replicate, is
    written as null, where json.dumps would write the token Infinity or NaN.
    """
    return json.dumps(_finite(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


# values _finite returns as they are without a call: the bulk of a report's records
_PLAIN = frozenset((int, bool, str, type(None)))


def _finite(value):
    """value with every non-finite float in its dicts, lists and tuples as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: v if type(v) in _PLAIN else _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [v if type(v) in _PLAIN else _finite(v) for v in value]
    return value
