"""Host-speed correction for timings taken on a shared machine.

On a shared virtual machine the processor this process runs on changes speed
while the benchmark runs.  On the 2-vCPU host the benchmark was written on, a
fixed pure-Python loop ran 1.7 times slower for stretches of one second to
a minute, with process CPU time rising as much as wall time.  A 25 s run
could fall wholly in a slow stretch, or wholly in a fast one.  So the wall
time of a run says as much about the host as about the program.

``HostSpeed`` measures the host's speed during the run, in the benchmark's
own thread.  An interval timer interrupts the program every ``INTERVAL``
seconds, and the signal handler times one slice of a fixed reference loop.
A slice runs in ``REF_S`` seconds when the host is fast.  ``duration``
turns a wall-clock interval into reference seconds.  It takes the wall time
outside the handler and multiplies it by ``REF_S / ref``, averaged over the
samples taken within ``PAD`` seconds of the interval.  Wall time times
that average is the work the interval held, in seconds of the fast host.
The correction scales every time the same way, so a change to the program
moves corrected times as it moves wall times.

The correction is only as good as the reference loop's likeness to the
program.  The loop multiplies a dense matrix of small Python integers by a
vector, as the library's dense solve does, over a matrix larger than a
core's private caches.  Fitted over the ops of each of the three workloads,
op time grew as the 0.98th to 1.12th power of this product's slowdown,
where 1 would be exact (measured with a generator form of the same
product).  A dictionary-update loop, tried first, gave powers from 0.33 to
0.95: it slowed more than the library's code did.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from array import array

INTERVAL = 0.1  # seconds between samples
PAD = 0.5  # samples this close to an interval speak for it
SIZE = 400  # the reference matrix is SIZE x SIZE
SLICE = 16  # rows multiplied per sample
# One slice on a fast host: the median of its samples while the host was fast,
# taken as here on an Intel Xeon 2.1 GHz 2-vCPU virtual machine, Python 3.11.
REF_S = 0.00039


class HostSpeed:
    """Samples of the reference loop's time, taken from SIGALRM in this thread."""

    def __init__(self):
        # Raw doubles, not float objects: samples taken while the program
        # runs must not leave long-lived objects in the program's heap.
        self.starts = array("d")  # handler entry times, ascending
        self.ends = array("d")
        self.refs = array("d")  # reference slice time of each sample
        self._previous = None
        rng = random.Random("hostspeed")
        self._matrix = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(SIZE)]
                        for _ in range(SIZE)]
        self._vector = [rng.randint(-5, 5) for _ in range(SIZE)]
        self._row = 0

    def reference_loop(self) -> int:
        """The next SLICE rows of the fixed matrix times the fixed vector.

        Index loops only: a generator, zip or list here would be an object
        that the cyclic garbage collector counts toward its next collection,
        so samples would shift when the program's collections run.
        """
        matrix, vec = self._matrix, self._vector
        total = 0
        for i in range(self._row, self._row + SLICE):
            row = matrix[i]
            for j in range(SIZE):
                a = row[j]
                if a:
                    total += a * vec[j]
        self._row = (self._row + SLICE) % SIZE
        return total

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.reference_loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.refs.append(t1 - t0)

    def duration(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] in reference seconds."""
        lo = bisect.bisect_left(self.starts, t0 - PAD)
        hi = bisect.bisect_right(self.starts, t1 + PAD)
        if lo == hi:  # no sample near: take the nearest on each side
            lo, hi = max(0, lo - 1), min(len(self.refs), hi + 1)
        if lo == hi:
            raise RuntimeError("host speed was never sampled")
        factor = statistics.fmean(REF_S / r for r in self.refs[lo:hi])
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_right(self.ends, t1)
        in_handler = sum(self.ends[i] - self.starts[i] for i in range(first, last))
        return (t1 - t0 - in_handler) * factor
