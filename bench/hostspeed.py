"""Host-speed reference for the benchmark's time metrics.

On a shared host the speed of a Python process drifts with the load of its
neighbours: the same search call took anywhere from 96 to 200 ms within two
minutes on a 2-vCPU host, while the ratio of its time to this reference loop
stayed within about 5%.  The benchmark therefore runs this loop between
calls, every 0.1 s or so, and scales each time measured in between by
REFERENCE_S over the mean of the loop's times at both ends.  A scaled time
reads as seconds on a host that runs the loop in REFERENCE_S.  The loop is the benchmark's own code, the same for every
commit measured, so a change to the program cannot move it.
"""

from __future__ import annotations

import random
from time import perf_counter

# The loop's time on the 2-vCPU host the benchmark was built on, at its
# fastest, under Python 3.11.
REFERENCE_S = 0.011

_N = 40
_rng = random.Random(5)
_ADJ = [0] * _N
for _u in range(_N):
    for _v in range(_u + 1, _N):
        if _rng.random() < 0.5:
            _ADJ[_u] |= 1 << _v
            _ADJ[_v] |= 1 << _u


def _has_clique(mask: int, k: int) -> bool:
    if k <= 1:
        return k <= 0 or mask != 0
    while mask:
        if mask.bit_count() < k:
            return False
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        if _has_clique(mask & _ADJ[v], k - 1):
            return True
    return False


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns a time measured between two loop runs into
    seconds at reference speed."""
    return 2 * REFERENCE_S / (before_s + after_s)


def loop_s() -> float:
    """Wall time of one fixed run of a bitset clique search."""
    start = perf_counter()
    for _ in range(8):
        for k in range(3, 9):
            for shift in range(0, _N, 2):
                _has_clique(((1 << _N) - 1) >> shift, k)
    return perf_counter() - start
