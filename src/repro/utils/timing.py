"""Shared wall-clock measurement helpers for benchmarks and harnesses.

Both helpers run one untimed warm-up call per case first, so lazily
built state (kernel plans, grown work buffers, caches) does not pollute
the samples, and both report the median of ``repeats`` timed calls.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Hashable, List, Tuple

import numpy as np


def timed_median(fn: Callable[[], Any], repeats: int) -> Tuple[float, Any]:
    """Median wall seconds of ``fn`` over ``repeats`` runs, plus its result."""
    result = fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples)), result


def interleaved_medians(
    fns: Dict[Hashable, Callable[[], Any]], repeats: int
) -> Dict[Hashable, float]:
    """Median wall seconds per case, sampled round-robin.

    Slow cases run for seconds; measuring each case's repeats
    back-to-back would let machine-speed drift across the run bias one
    side of a speedup ratio.  Alternating the cases puts every sample
    pair under the same conditions.
    """
    for fn in fns.values():
        fn()
    samples: Dict[Hashable, List[float]] = {name: [] for name in fns}
    for _ in range(repeats):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - start)
    return {name: float(np.median(s)) for name, s in samples.items()}
