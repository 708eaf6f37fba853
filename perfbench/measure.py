"""Summary statistics shared by the runner, the steadiness report and
the self-tests: medians, quartiles, the tail-percentile rule, peak
memory and the host description printed with every result."""

from __future__ import annotations

import os
import platform
import resource
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; with fewer than MIN_TAIL_SAMPLES samples in all, the
#: "tail" would be the maximum of a handful of draws, not a tail.
TAIL_BEYOND = 10
MIN_TAIL_SAMPLES = 40


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest percentile that still has ``TAIL_BEYOND`` samples
    beyond it, as ``(value, percentile, beyond)``; ``None`` below
    ``MIN_TAIL_SAMPLES`` samples.

    The value is the order statistic with exactly ``TAIL_BEYOND``
    samples above it; its percentile is the share of samples at or
    below it.
    """
    n = len(samples)
    if n < MIN_TAIL_SAMPLES:
        return None
    ordered = sorted(samples)
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (the rule the acceptance check uses)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB (Linux
    reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_info() -> Dict[str, object]:
    """What the figures depend on beyond the code: interpreter, numpy
    (its presence switches the simulator to the vectorized engine) and
    the CPUs this process may run on."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": usable,
        "cpu_count": os.cpu_count(),
    }
