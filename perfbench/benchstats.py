"""The tail rule of the benchmark's latency metric."""

from __future__ import annotations

from typing import Sequence

import numpy as np

MIN_BEYOND = 10


def tail(values: Sequence[float], percentile: float) -> dict:
    """The workload's fixed tail percentile of ``values``, the number of
    samples strictly beyond it, and whether that number is below
    ``MIN_BEYOND``.

    Each workload fixes its percentile at the highest one that its
    designed sample count leaves ten operations beyond.  A program that
    completes fewer operations keeps the same percentile, so a slowdown
    cannot read as a lower tail; the run is flagged ``short`` instead.
    """
    value = float(np.percentile(values, percentile))
    beyond = sum(1 for v in values if v > value)
    return {
        "percentile": percentile,
        "value": value,
        "beyond": beyond,
        "samples": len(values),
        "short": beyond < MIN_BEYOND,
    }
