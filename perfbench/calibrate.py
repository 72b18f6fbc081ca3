"""Host-speed calibration: a fixed pure-Python kernel timed next to the work.

The shared 2-vCPU Xeon virtual machine this benchmark was built on changes
speed by up to 2x within a minute (a fixed pure-Python loop took 21-43 ms
in one minute's samples), and a whole run cannot average that out.  So every host
time the benchmark reports is normalised: the harness times this kernel
at least every :data:`EVERY` seconds between timed regions, and scales each
region by ``NOMINAL / c``, with ``c`` the median kernel time within
:data:`WINDOW` seconds of it.
Reported host seconds are therefore seconds on a host where the kernel
takes :data:`NOMINAL` seconds.  The kernel does not touch the program, so a
change to the program moves the normalised figures exactly as it moves the
raw ones; only the host's drift cancels.

The kernel mimics the program's hot loop: generator resumes driven by a
heap of small ``__slots__`` events, and dict updates.  A smaller kernel
with the same loop tracked the Table-1 passes worse: across five 20 s
runs it left 11% spread where raw times had 7%; this one left 5%.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Kernel seconds on the reference machine (about its median there).
NOMINAL = 0.012
#: Seconds of measuring between kernel samples.
EVERY = 0.25
#: A stretch of work is scaled by the median kernel time within this many
#: seconds of it.
WINDOW = 2.0


class _Event:
    __slots__ = ("t", "n", "proc")

    def __init__(self, t, n, proc):
        self.t = t
        self.n = n
        self.proc = proc

    def __lt__(self, other):
        return (self.t, self.n) < (other.t, other.n)


def _process(k: int):
    x = 0
    while True:
        x = (x * 31 + k) % 1009
        yield x


def kernel(procs: int = 2048, steps: int = 2500) -> int:
    """Resume ``steps`` generators in heap order, each step allocating a
    new event and a dict entry; ``procs`` sets the working set, kept large
    because the simulator's is, and cache pressure from other tenants is
    part of the drift to cancel."""
    heap = [_Event(0.0, k, _process(k)) for k in range(procs)]
    heapq.heapify(heap)
    seen = {}
    n = len(heap)
    for _ in range(steps):
        ev = heapq.heappop(heap)
        v = next(ev.proc)
        seen[(v, n & 4095)] = n
        heapq.heappush(heap, _Event(ev.t + v * 1e-6, n, ev.proc))
        n += 1
    return len(seen)


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def typical(samples: int = 3) -> float:
    """The median of a few kernel times, for a one-off normalisation."""
    return statistics.median(sample() for _ in range(samples))
