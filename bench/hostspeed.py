"""Host-speed probe: scales host times to a fixed reference speed.

The benchmark's host is a shared VM whose speed drifts by up to a third
from one second to the next and over minutes: a fixed pure-Python loop
took 17 to 26 ms per iteration in consecutive 1 s windows.  The
process's CPU time drifts alike, so CPU time is no remedy.

While a measuring child runs, an interval timer interrupts it every
``PERIOD_S`` and runs a fixed pure-Python probe.  Each probe's duration
samples the host's speed at that moment.  A timed interval is scaled by
``REFERENCE_NS`` over the probe duration around it (see ``scale``),
after the probe time inside it has been taken out.  A scaled time reads
as the time the interval would take on a host where one probe takes
exactly ``REFERENCE_NS``.  The program's own slowdowns are not scaled
away: the probe runs none of the program's code.

The probe frees each object it allocates before it allocates the next,
so the garbage collector's allocation count, which triggers its
collections, ends each probe where it started.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter_ns

PERIOD_S = 0.01
PROBE_LOOPS = 400
PROBE_ALLOCS = 300
REFERENCE_NS = 500_000
# A short interval is scaled by the probes within this window around it.
WINDOW_NS = 250_000_000


class _Cell:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


class _Node:
    __slots__ = ("key", "pair", "table")

    def __init__(self, key, pair, table):
        self.key = key
        self.pair = pair
        self.table = table


_CELL = _Cell()
_TABLE = dict.fromkeys(range(1024), 0)
_SMALL = dict.fromkeys(range(8), 0)


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def probe_work() -> int:
    """The fixed work of one probe.

    Half of it is calls, attribute and dict access and int arithmetic;
    half allocates and frees small objects, tuples and dict copies, as
    the receiver's state clones do.  Neither half alone tracked every
    workload's slowdowns as well as both together.
    """
    cell, table = _CELL, _TABLE
    cell.value = 0
    for i in range(PROBE_LOOPS):
        key = (i * 2654435761 ^ cell.value) & 1023
        table[key] = (table[key] + i) & 0xFFFF
        cell.value = _mix(cell.value, table[key])
    acc = cell.value
    for i in range(PROBE_ALLOCS):
        node = _Node(i & 7, (i, acc), _SMALL.copy())
        node.table[node.key] = i + acc
        acc = _mix(acc, node.table[node.key] + len(node.pair))
    return acc


class HostProbe:
    """Samples probe durations on SIGALRM while started."""

    def __init__(self):
        self.ends: list[int] = []
        self.durations: list[int] = []
        self.total_ns = 0  # probe time so far, taken out of the set-up time

    def _sample(self, signum, frame) -> None:
        start = perf_counter_ns()
        probe_work()
        end = perf_counter_ns()
        self.ends.append(end)
        self.durations.append(end - start)
        self.total_ns += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def median_ns(self) -> float:
        return statistics.median(self.durations)

    def inside(self, start: int, end: int) -> int:
        """Probe time that fell inside [start, end]; a probe never straddles a bound."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        return sum(self.durations[lo:hi])

    def scale(self, start: int, end: int) -> float:
        """Factor that turns host time in [start, end] into reference time.

        An interval of at least ``WINDOW_NS`` takes in the host's stalls
        along with its work, so it is scaled by the mean probe inside it.
        A shorter one is scaled by the median probe within ``WINDOW_NS``
        around it, because the benchmark sums up short operations by
        their median, which already leaves out those a stall hit.
        Measured per operation on the three workloads, the other choice
        spread the scaled times 1.4 to 2 times as wide.
        """
        middle = (start + end) // 2
        half = max(end - start, WINDOW_NS) // 2
        lo = bisect.bisect_left(self.ends, middle - half)
        hi = bisect.bisect_right(self.ends, middle + half)
        window = self.durations[lo:hi] or self.durations
        if end - start >= WINDOW_NS:
            return REFERENCE_NS / statistics.mean(window)
        return REFERENCE_NS / statistics.median(window)
