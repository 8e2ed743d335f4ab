"""Small helpers shared by the orchestrator and the repetitions."""

from __future__ import annotations

import hashlib
import json
import math


def canonical_digest(value) -> str:
    """sha256 of *value*: a string as is, anything else as sorted JSON."""
    if not isinstance(value, str):
        value = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(value.encode()).hexdigest()


def percentile(ordered: list[float], fraction: float) -> float:
    """Percentile of an ascending list, interpolated between the two
    nearest ranks (0.0 when empty).  Interpolating, rather than taking
    one rank, keeps a tail percentile of a few dozen samples from
    following a single sample."""
    if not ordered:
        return 0.0
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
