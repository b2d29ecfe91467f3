"""A machine-speed probe, timed between jobs, to scale job times to one speed.

The shared 2-vCPU virtual machine this benchmark was built on changed speed
by +-20 % over tens of seconds, with no steal time and CPU time tracking wall
time, so a slower stretch stretches every job alike.  The probe is a fixed
pure-Python breadth-first search over vertex pairs (dicts, tuples and a
deque, as in spanlab's product searches).  A job that ran between two probes
is scaled by ``REFERENCE_S / mean(probe before, probe after)``: its time at
the speed where one probe takes ``REFERENCE_S``.  A change to spanlab moves
the job times and not the probes, so it shows in the scaled times in full.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque

# One probe's time at the reference speed: about the median probe over a
# minute on an "Intel(R) Xeon(R) Processor" virtual machine, Python 3.11.
REFERENCE_S = 0.0035
UNITS = 5            # a probe is the median of this many searches
STATES = 6000        # vertex pairs each search visits

_rng = random.Random(1)
_N = 300
_adj = [set() for _ in range(_N)]
for _u in range(_N):
    for _v in _rng.sample(range(_N), 4):
        if _u != _v:
            _adj[_u].add(_v)
            _adj[_v].add(_u)
ADJ = tuple(tuple(sorted(a)) for a in _adj)


def _search() -> int:
    seen = {(0, 1): 0}
    queue = deque([(0, 1)])
    while queue and len(seen) < STATES:
        a, b = queue.popleft()
        d = seen[(a, b)] + 1
        for x in ADJ[a]:
            for y in ADJ[b]:
                if (x, y) not in seen:
                    seen[(x, y)] = d
                    queue.append((x, y))
    return len(seen)


def probe() -> float:
    """Seconds one search takes now: the median of ``UNITS`` searches."""
    times = []
    for _ in range(UNITS):
        t0 = time.perf_counter()
        _search()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two probes into reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
