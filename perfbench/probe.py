"""A fixed pure-Python snippet that measures how fast the host runs Python right now.

On the shared 2-core virtual machine these benchmarks were tuned on, the
speed of a core drifts by a third or more for seconds to minutes at a time
(steal time stays near zero, and CPU time drifts with wall time), so raw
seconds from two sets of runs ten minutes apart differ by more than any
useful bound.  The snippet slows down with the workload, so the benchmark
reports times in *reference seconds*: measured seconds scaled by
``NOMINAL_S / snippet time``, the snippet being timed while the work runs.
A change that makes the program faster lowers them in the same proportion as
raw seconds, and the snippet does not use the package.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

ROUNDS = 2500
NOMINAL_S = 0.001  # a reference core runs the snippet in exactly this long
INTERVAL_S = 0.1  # how often the sampler times the snippet while a workload runs
SETUP_INTERVAL_S = 0.01  # the same during set-up, which takes about 0.1 s


def snippet_seconds() -> float:
    """Seconds taken by one run of the snippet: dict, tuple, int and Fraction work."""
    t0 = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    total = Fraction(0)
    for i in range(ROUNDS):
        key = (i & 255, i & 7)
        counts[key] = counts.get(key, 0) + 3 * i
        if not i % 50:
            total += Fraction(i, 7)
    return time.perf_counter() - t0


class Sampler:
    """Times the snippet every `interval` seconds of wall time while the block runs.

    A SIGALRM handler runs the snippet between two bytecodes of whatever the
    main thread is doing, so the samples cover the whole block, and
    ``seconds`` (the total the snippets took) can be taken off its wall time.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.times: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.times.append(snippet_seconds())

    def __enter__(self) -> "Sampler":
        self.times = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def seconds(self) -> float:
        return sum(self.times)

    def probe_s(self) -> float:
        """The block's snippet time: the harmonic mean of the samples.

        The samples are evenly spaced in wall time, so this weights the host's
        speed (one over the snippet time) by how long the block ran at it.  A
        block too short for a sample gets one snippet timed now instead.
        """
        return statistics.harmonic_mean(self.times) if self.times else snippet_seconds()


def reference_seconds(seconds: float, probe_s: float) -> float:
    return seconds * NOMINAL_S / probe_s
