"""Host-speed calibration for the benchmark's timed figures.

The benchmark was tuned on a host whose cores are shared: the same
harness run took anywhere from 2.0 to 3.0 s from one minute to the
next, in CPU time as much as in wall time, so no statistic over a
30-second pass held a timed figure within its bound.  ``kernel`` is a
fixed piece of pure Python of the kind the program does (small objects,
dicts, lists, sorting, integer bit work).  Timed five times a second
between the program's events, it slows down with the host: over 18
identical scan-dynamic rounds of about 7 s, throughput varied by 14%
from round to round, and throughput with each run's time scaled by the
kernel by 3%.  The benchmark scales each run's times by
``REFERENCE_NS`` over the mean kernel time in that run, which gives the
time the run would take on a host where one kernel takes
``REFERENCE_NS``.  The mean, not the median: the run's time adds up
its slow stretches, and so does the mean.

The kernel is part of the benchmark, not of the program, so a change to
the program moves the scaled figures as it moves the raw ones, unless it
changes the interpreter's own behaviour (garbage collector thresholds,
say), which moves the kernel too.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter_ns

# about the mean kernel time on the 2-core Xeon host the benchmark was
# tuned on
REFERENCE_NS = 12_000_000


class _Node:
    __slots__ = ("key", "parent", "kids", "depth")

    def __init__(self, key, parent):
        self.key = key
        self.parent = parent
        self.kids = []
        self.depth = 0 if parent is None else parent.depth + 1


def kernel() -> int:
    """A fixed workload: grow a random tree, then walk it by sorted
    children, sizing labels and keeping per-node counts."""
    rng = random.Random(12345)
    nodes = [_Node(0, None)]
    for key in range(1, 1200):
        parent = nodes[rng.randrange(len(nodes))]
        node = _Node(key, parent)
        parent.kids.append(node)
        nodes.append(node)
    counts = {}
    seen = set()
    bits = 0
    for _ in range(6):
        stack = [nodes[0]]
        while stack:
            v = stack.pop()
            seen.add(v.key)
            counts[v.key] = counts.get(v.key, 0) + len(v.kids)
            label = (v.depth, v.key, len(v.kids))
            bits += sum(x.bit_length() for x in label)
            stack.extend(sorted(v.kids, key=lambda n: -n.key))
    return bits + len(seen) + sum(counts.values())


def sample() -> int:
    """Time one kernel run, in ns."""
    start = perf_counter_ns()
    kernel()
    return perf_counter_ns() - start


def scale(samples) -> float:
    """Factor that turns a time measured among ``samples`` into the
    time on the reference host."""
    return REFERENCE_NS / statistics.fmean(samples)
