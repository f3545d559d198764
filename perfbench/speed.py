"""Machine-speed reference for the benchmark's timings.

The machines this benchmark runs on are shared: the same single-threaded
sample can take 30-60 % longer when neighbours load the host, in phases of
seconds to minutes.  Only timings taken at the same moment slow down
together, so the sample process interleaves a fixed pure-Python reference
loop with its work (a SIGALRM probe every PROBE_INTERVAL_S) and rescales each
slice of wall time by the speed measured next to it:

    reference seconds = sum over slices of  wall_slice * NOMINAL_S / probe_s

so a slice run while the reference loop took twice its nominal time counts
half.  The probes' own time is left out.  The reference loop does exact
Fraction arithmetic, as germlab does, and runs in about NOMINAL_S.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_INTERVAL_S = 0.1
NOMINAL_S = 0.002


def reference_loop() -> float:
    """Seconds the fixed reference work takes right now.

    The garbage collector is paused meanwhile: a collection of the
    workload's heap triggered by the loop's allocations would be timed as
    machine slowness.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        s = Fraction(0)
        for k in range(1, 700):
            s += Fraction(1, k % 97 + 1)
        return perf_counter() - t
    finally:
        if was_enabled:
            gc.enable()


def reference_speed(probes: int = 5) -> float:
    """Median duration of a few back-to-back reference loops."""
    return statistics.median(reference_loop() for _ in range(probes))


class Speedometer:
    """Times a block in wall and in reference seconds.

    ``on_probe(seconds)`` is called after each probe inside the block, so a
    tracer can keep probe time out of the self time of the traced call.
    """

    def __init__(self, on_probe=None):
        self.on_probe = on_probe
        self.probes = []            # (start, duration)

    def _probe(self, _signum, _frame):
        t = perf_counter()
        d = reference_loop()
        self.probes.append((t, d))
        if self.on_probe is not None:
            self.on_probe(perf_counter() - t)

    def __enter__(self):
        self.before = reference_speed(3)
        self._old = signal.signal(signal.SIGALRM, self._probe)
        self.t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        self.t1 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.after = reference_speed(3)
        return False

    @property
    def wall_s(self) -> float:
        """Wall time of the block, probes included."""
        return self.t1 - self.t0

    @property
    def reference_s(self) -> float:
        """Wall time of the block without probes, in reference seconds.

        Each slice between probes is scaled by the median of the probe
        durations around it; the slices before the first and after the last
        probe use the loops run just outside the block.
        """
        durations = [self.before] + [d for _, d in self.probes] + [self.after]
        edges = [(self.t0, 0.0)] + self.probes + [(self.t1, 0.0)]
        total = 0.0
        for i in range(len(edges) - 1):
            start = edges[i][0] + edges[i][1]
            speed = statistics.median(durations[i:i + 3])
            total += (edges[i + 1][0] - start) * NOMINAL_S / speed
        return total
