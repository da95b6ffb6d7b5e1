"""Host speed probe: scales CPU times to a reference host speed.

The benchmark shares its cores with other tenants, and their load slows
it by 10-20% within seconds, even in CPU time: a fixed Python loop ran
from 1.76 to 2.61 million iterations per 1.5 CPU seconds over one
minute.  So while a run measures, a wall-clock timer (SIGALRM, every
PERIOD_S) interrupts the main thread and runs a fixed pure-Python loop,
the probe, and records the thread CPU time it took.  The probe runs on
the same core at the same time as the program, so it slows with it: in
runs of 60-80 s the CPU time of a pass of `sh1d-certify` or `sh1d-family`
correlated with the mean probe time at 0.94 to 0.99, and dividing by it
cut the spread of the passes from 3-7% to 1-3%.

A CPU time t measured over a window whose probes took p seconds on
average is reported as t * REF_PROBE_S / p: the CPU time the same work
takes on a host where the probe takes REF_PROBE_S.  The probe does not
touch the program, so a change to the program moves the reported time
by the same factor as the CPU time.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
PROBE_LOOPS = 6000
# the probe's thread CPU time on a quiet 2-core Xeon host (KVM guest)
REF_PROBE_S = 5e-4


class Probe:
    """Context manager that runs the probe every PERIOD_S seconds."""

    def __init__(self):
        self.samples = []       # thread CPU seconds of each probe
        self.spent = 0.0        # their sum
        self._saved = None

    def _probe(self, signum, frame):
        c = time.thread_time()
        s = 0
        for i in range(PROBE_LOOPS):
            s += i * i % 7
        dt = time.thread_time() - c
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def cpu(self) -> float:
        """Process CPU seconds, less the time spent in probes."""
        return time.process_time() - self.spent

    def mark(self) -> int:
        """Start of a window: the probes taken so far."""
        return len(self.samples)

    def probe_s(self, since: int) -> float:
        """Mean probe time since `since`; all probes if none came since."""
        window = self.samples[since:] or self.samples
        if not window:
            raise RuntimeError("no host speed probe ran")
        return statistics.fmean(window)

    def scale(self, since: int) -> float:
        """Factor from CPU time in the window to reference CPU time."""
        return REF_PROBE_S / self.probe_s(since)
