"""Host speed calibration for the timed metrics.

On a shared virtual machine the speed of a core drifts by 30 to 50 percent
over seconds, as neighbours come and go.  A sweep of several seconds then
reads very differently from one run to the next although the program did
the same work.  So the benchmark times a fixed pure-Python loop (one
calibration chunk, about 10 ms) before the first operation and after every
operation, and scales each operation's wall time by REFERENCE_S over the
mean of the two chunks around it.  The result is the time the operation
would have taken on a host where the chunk takes REFERENCE_S.  The chunks
run outside the operation timers.  The chunk tracks interpreter-bound work
only; workloads.sweep says which sweeps it is applied to.
"""

from __future__ import annotations

import time

CHUNK_ITERATIONS = 100_000
REFERENCE_S = 0.010


def chunk_s() -> float:
    """Wall time of one calibration chunk."""
    start = time.perf_counter()
    acc = 0
    for i in range(CHUNK_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def adjusted(times: list[float], chunks: list[float]) -> float:
    """Sum of the operation times, each scaled to the reference speed by the
    chunks timed just before and just after it (len(chunks) is
    len(times) + 1)."""
    if len(chunks) != len(times) + 1:
        raise ValueError(f"{len(chunks)} calibration chunks for {len(times)} operations")
    return sum(
        t * 2 * REFERENCE_S / (chunks[i] + chunks[i + 1]) for i, t in enumerate(times)
    )
