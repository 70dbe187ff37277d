"""A fixed pure-Python kernel that gauges how fast the processor runs now.

The machines this benchmark runs on share their processors with other
tenants.  The speed of the processor swings by up to half, for seconds to
minutes at a time, and the process's CPU time swings with its wall time.  A
run of a few tens of seconds cannot wait such a spell out, so the raw solve
times of two runs differ by the spell they fell into.

The worker therefore times this kernel next to every solve.  `run.py`
divides each solve's time by the kernel's time around it and multiplies by
`REFERENCE_S`: the solve's time at the speed at which the kernel takes
`REFERENCE_S` seconds.  The kernel does the kind of work the program does
(building, indexing and joining tuples in the interpreter), so a spell slows
both alike.  In 36-s windows of two traces, of 5 and 7 minutes on a 2-vCPU
shared VM, it cut the spread of the median solve time two- to fivefold on
every kind of solve the workloads make.  It imports nothing from `microasp`, so no change to the program can
move it.
"""
from __future__ import annotations

import gc
import time

#: The kernel's time at the nominal speed the end-to-end times are given at;
#: about its median on a 2-vCPU shared cloud VM with CPython 3.11.
REFERENCE_S = 0.020
FACTS = 1600
BUCKETS = 40


def kernel() -> int:
    """A join of the kind a grounder and a propagator make: index pairs by a
    key, join each pair with its bucket, and build tuples and frozensets.

    Only a few thousand results stay alive, so the kernel adds little to the
    peak RSS of the process."""
    facts = [(i, (i * 31) % FACTS) for i in range(FACTS)]
    index: dict[int, list[tuple[int, int]]] = {}
    for a, b in facts:
        index.setdefault(a % BUCKETS, []).append((a, b))
    found: dict[tuple, frozenset] = {}
    for a, b in facts:
        for c, d in index.get(b % BUCKETS, ()):
            if (a + d) % 3:
                found[("r", a % 64, d % 64)] = frozenset((a, b, c, d))
    return len(found) + len(sorted(found, key=lambda key: key[1])[:10])


def timed() -> float:
    """Seconds one run of the kernel takes now.

    The collector is off while the kernel runs: a collection would walk the
    objects the last solve left behind, and time their number, not the speed
    of the processor.
    """
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        gc.enable()
