"""Pure statistics the benchmark reports through: percentiles, windows, spread.

Nothing here reads a clock or a file, so the self-tests can drive every rule
with hand-built inputs.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles a timing may be reported at, highest first.
PERCENTILES: Tuple[float, ...] = (99.9, 99.0, 90.0, 50.0)

#: A percentile is supported only with at least this many samples beyond it.
SAMPLES_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank; rounding first keeps 99.9% of 10000 at 9990."""
    return min(count, max(1, math.ceil(round(pct * count / 100.0, 6))))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100]) of unsorted ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(len(values), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct``."""
    return count - _rank(count, pct) if count else 0


def supported_percentile(count: int) -> Optional[float]:
    """The highest of ``PERCENTILES`` with ``SAMPLES_BEYOND`` samples above it."""
    for pct in PERCENTILES:
        if samples_beyond(count, pct) >= SAMPLES_BEYOND:
            return pct
    return None


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def timing_summary(values_ms: Sequence[float]) -> Dict[str, object]:
    """Median, p99 and the highest supported percentile of one timing sample."""
    if not values_ms:
        return {"count": 0}
    top = supported_percentile(len(values_ms))
    return {
        "count": len(values_ms),
        "p50": percentile(values_ms, 50.0),
        "p99": percentile(values_ms, 99.0),
        "p99_supported": top is not None and top >= 99.0,
        "highest_supported": top,
        "at_highest": percentile(values_ms, top) if top is not None else None,
    }


# ---------------------------------------------------------------------------
# host steal per window
# ---------------------------------------------------------------------------

#: Field positions after the ``cpu`` label of ``/proc/stat``'s first line.
_STEAL_FIELD = 7
_GUEST_FIELDS = (8, 9)


def parse_cpu_line(line: str) -> Tuple[int, int]:
    """(steal ticks, total ticks) from the aggregate ``cpu`` line of /proc/stat.

    Guest time is already counted inside user/nice, so it is left out of the
    total.
    """
    fields = [int(value) for value in line.split()[1:]]
    total = sum(
        value for index, value in enumerate(fields) if index not in _GUEST_FIELDS
    )
    steal = fields[_STEAL_FIELD] if len(fields) > _STEAL_FIELD else 0
    return steal, total


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of CPU ticks stolen by the host between two samples."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


class Window:
    """One fixed measurement window: its span and the host steal inside it."""

    __slots__ = ("start", "end", "steal")

    def __init__(self, start: float, end: float, steal: float) -> None:
        self.start = start
        self.end = end
        self.steal = steal


def split_windows(
    windows: Sequence[Window], threshold: float, minimum: int
) -> Tuple[List[Window], List[Window]]:
    """(kept, dropped): windows above ``threshold`` steal are dropped.

    When fewer than ``minimum`` windows survive, every window is kept, so a
    run on a host that steals throughout still reports (and records that it
    could not filter).
    """
    kept = [window for window in windows if window.steal <= threshold]
    dropped = [window for window in windows if window.steal > threshold]
    if len(kept) < minimum:
        return list(windows), []
    return kept, dropped


def window_of(windows: Sequence[Window], moment: float) -> Optional[Window]:
    """The window containing ``moment`` (windows sorted, non-overlapping)."""
    low, high = 0, len(windows) - 1
    while low <= high:
        middle = (low + high) // 2
        window = windows[middle]
        if moment < window.start:
            high = middle - 1
        elif moment >= window.end:
            low = middle + 1
        else:
            return window
    return None
