"""Timings rescaled to a reference machine speed.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed pure-Python loop timed in short windows ranges from about 1.0x to
1.7x its fastest, in spells of one to tens of seconds, and CPU time drifts
with it.  A median over the passes of one run cannot average that out, so
two runs of the same code can differ by a quarter.

``SpeedProbe`` measures the drift in the process being timed.  A real-time
interval timer runs a fixed calibration loop (``probe``) every
``PERIOD_S`` seconds, in a signal handler on the main thread, between the
program's own bytecodes.  ``scaled(t0, t1)`` returns the time in
``[t0, t1]`` that the probes did not use, each gap between two probes
divided by the local speed factor: the median duration of the four probes
around the gap over ``REF_S``.  The result is the time the interval would
have taken at the speed where one probe takes ``REF_S`` seconds, which is
about the fastest this loop runs on the 2-vCPU Xeon host the benchmark was
defined on.  The probes add about 2% to a pass's raw time and are not
counted in the scaled time.

The probe spends about two thirds of its time on interpreter arithmetic
and a third on scattered reads from an 8 MiB buffer.  In trials on a busy
host the program slowed more than an arithmetic loop alone and less than
scattered reads alone, and a mix of the two tracked it more closely than
either.  Over ten 40-second runs of ``ode-solve`` the spread
of ``wall_s`` (quartile distance over median) was 0.05 scaled and 0.29
raw.  The buffer adds 8 MiB to every child's peak RSS.

The loop is the benchmark's own code, so a change to the program moves the
scaled times exactly as it moves the raw ones, while a slower or faster
spell of the host moves both probe and program and cancels.  The raw times
are kept beside the scaled ones in every record.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from array import array

PERIOD_S = 0.1
LOOPS = 20_000
READS = 4_000
REF_S = 1.6e-3

# The probe's random reads cover 8 MiB, more than a core's private caches.
_BUFFER = bytes(range(256)) * (8 * 4096)
_OFFSETS = random.Random(0).sample(range(len(_BUFFER)), READS)


def probe() -> None:
    """Interpreter arithmetic, then scattered memory reads."""
    s = 0
    for i in range(LOOPS):
        s += i * i % 7
    for j in _OFFSETS:
        s += _BUFFER[j]


class SpeedProbe:
    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.cpu = 0.0  # process CPU time spent in probes

    def _probe(self, *_) -> None:
        c0 = time.process_time()
        t0 = time.monotonic()
        probe()
        t1 = time.monotonic()
        self.cpu += time.process_time() - c0
        self.starts.append(t0)
        self.ends.append(t1)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop the timer; one last probe closes the final gap."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def probe_time(self, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1]`` spent in probes."""
        return sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in zip(self.starts, self.ends))

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1]`` outside probes, at the reference speed.

        Gap k lies between probes k and k+1.  Time before the first probe or
        after the last one takes the factor of the nearest gap, or of the
        only probe when there is one.
        """
        n = len(self.ends)  # a probe may fire while this runs
        if not n:
            raise RuntimeError("speed probe has not run")
        durations = [self.ends[k] - self.starts[k] for k in range(n)]

        def factor(k: int) -> float:
            return statistics.median(durations[max(0, k - 1) : min(n, k + 3)]) / REF_S

        inf = float("inf")
        pieces = [(-inf, self.starts[0], factor(0)), (self.ends[n - 1], inf, factor(n - 2))]
        pieces += [(self.ends[k], self.starts[k + 1], factor(k)) for k in range(n - 1)]
        return sum(max(0.0, min(hi, t1) - max(lo, t0)) / f for lo, hi, f in pieces)
