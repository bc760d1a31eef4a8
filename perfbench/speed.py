"""Host speed: a fixed kernel timed on the benchmark's CPU beside the program.

On a shared 2-vCPU VM the same interpreted work ran up to 2x faster or
slower from one minute to the next with little host steal, and one vCPU's
speed did not follow the other's.  Ten-run medians of identical code taken
minutes apart differed by 26%, more than any useful bound.  So every timed
end-to-end metric is reported at a reference host speed: each measured time
times ``REFERENCE_MS`` over the median time of the ``kernel`` passes timed
nearest to it on the same CPU, and the metric is the median of those scaled
samples.  Speed also moves within a run: on ten research-batch runs,
scaling each round by the passes timed inside it gave a quartile spread of
0.016 where one factor per run gave 0.115.  The kernel
is the benchmark's own code -- dict, hash, string and sort work, the kind
the program spends its time on -- so it is identical on both commits of a
comparison and cancels only the host.  Every run keeps its raw values and
kernel times in its detail.

The kernel is small and compute-bound, so it follows interpreted work best.
When the host ran ~1.5x faster for a whole run, api-scan's read latency
followed it exactly but closed-loop capacity rose only ~1.3x; and in
volatile hours the kernel moved more than api-churn's cached reads, which
spend much of their time in system calls and SQLite.  Delta ingests, which
are SQLite-bound, did not follow it at all, which is why ingest latency is
not a metric.
"""

from __future__ import annotations

import bisect
import time
from statistics import median
from typing import List, Sequence

#: Median ``kernel`` pass on the 2-vCPU VM the bounds were sized on, in ms.
REFERENCE_MS = 2.5


def kernel() -> int:
    """A fixed pure-Python workload of about 2-3 ms."""
    table = {}
    mixed = 0
    for index in range(3000):
        key = (index * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + index
        mixed ^= hash(str(key)) & 0xFF
    ordered = sorted(table.items(), key=lambda item: (item[1], item[0]))
    return mixed + sum(value for _key, value in ordered[:1500])


def kernel_pass_ms() -> float:
    started = time.perf_counter()
    kernel()
    return (time.perf_counter() - started) * 1e3


def burst(passes: int) -> List[float]:
    """Times of ``passes`` back-to-back kernel passes, in ms."""
    return [kernel_pass_ms() for _ in range(passes)]


def factor(passes_ms: Sequence[float]) -> float:
    """Multiplier taking a time measured beside these passes to the reference speed."""
    return REFERENCE_MS / median(passes_ms)


#: How many passes, nearest in time, scale one sample of a phase.
NEAREST = 9


def nearest(at: Sequence[float], passes_ms: Sequence[float], moment: float) -> Sequence[float]:
    """The ``NEAREST`` passes timed closest to ``moment`` (``at`` ascending)."""
    index = bisect.bisect_left(at, moment)
    low = max(0, min(index - NEAREST // 2, len(at) - NEAREST))
    return passes_ms[low:low + NEAREST]


def bracketed(times: Sequence[float], bursts: Sequence[Sequence[float]]) -> List[float]:
    """Each of ``times`` scaled by the bursts timed just before and after it
    (``bursts`` holds one more burst than there are times)."""
    return [elapsed * factor([*before, *after])
            for elapsed, before, after in zip(times, bursts, bursts[1:])]
