"""Small, dependency-free measurement helpers shared by the benchmark.

Kept apart from the workloads so the tests can exercise them without
importing the program under test.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (integer 1..99), linear interpolation.

    Uses ``statistics.quantiles(method="inclusive")`` so the result stays
    inside the sample's range and a one-element sample is its own
    percentile.
    """
    data = [float(v) for v in values]
    if not data:
        raise ValueError("percentile of an empty sample")
    if not (isinstance(q, int) and 0 < q < 100):
        raise ValueError(f"percentile must be an integer in 1..99, got {q!r}")
    if len(data) == 1:
        return data[0]
    return statistics.quantiles(data, n=100, method="inclusive")[q - 1]


def digest(payload: object) -> str:
    """SHA-256 of ``payload`` as canonical JSON (sorted keys, no spaces).

    Floats serialise through ``repr``, so two digests agree only when
    every value is bit-identical.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
