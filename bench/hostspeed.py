"""Host-speed reference: a fixed kernel timed from a timer signal while the benchmark works.

On a shared host the cores switch, within seconds, between a fast and a slow
state, and the share of fast time drifts over tens of minutes, so the same
command's wall time moves by 25-35% between sets of runs (see README.md).
While a :class:`Sampler` is active, a timer signal interrupts the work every
INTERVAL_S and times ``kernel`` in the same thread, so the samples see the
core's speed at the moments the work ran. Work timed through the sampler has
the kernel's time taken out, and ``factor`` turns its seconds into reference
seconds: REFERENCE_S over the trimmed mean kernel time, to the power
ELASTICITY.

The kernel is benchmark code, identical on every commit, so a change to the
program moves scaled times as it moves raw ones. It is a plain float loop that
allocates no objects the garbage collector tracks. When the host slows, the
program's commands slow about 1.5 times as much as the loop in logarithmic
terms (ELASTICITY, measured on both `compare` and `evaluate`; README.md). A
split scan over numpy scalars slowed as much as the program within a run,
but did no better across runs. Python runs signal handlers between bytecodes, so a long C call
delays a sample; it does not change what the sample sees.
"""

from __future__ import annotations

import signal
import statistics
import time

# A round figure near the kernel's mean time, interrupting the program, on
# the host the benchmark was tuned on, so scaled times stay close to raw ones.
REFERENCE_S = 1.25e-4
FIRST_S = 0.001      # first sample this soon after work starts, so short work gets one
INTERVAL_S = 0.025   # one sample per this much wall time: about 0.5% of it
TRIM = 0.05          # share of samples dropped at each end (preemptions)
ELASTICITY = 1.5     # d log(program time) / d log(kernel time) as the host's speed moves


def kernel() -> float:
    total = 0.0
    for i in range(2000):
        total += i * 0.5
    return total


class Sampler:
    """Kernel times collected while work runs under :meth:`time`."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0     # wall time spent in the signal handler

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def time(self, fn, *args):
        """Run ``fn(*args)``; returns (its seconds less the sampling's, its result)."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        spent = self.spent
        signal.setitimer(signal.ITIMER_REAL, FIRST_S, INTERVAL_S)
        try:
            start = time.perf_counter()
            result = fn(*args)
            seconds = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return seconds - (self.spent - spent), result

    def factor(self) -> float:
        """(REFERENCE_S / trimmed mean kernel time) ** ELASTICITY; 1.0 before any sample."""
        if not self.samples:
            return 1.0
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        return (REFERENCE_S / statistics.fmean(ordered[cut:len(ordered) - cut])) ** ELASTICITY
