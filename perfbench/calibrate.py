"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
minutes, and both wall and CPU time drift with it.  To keep a run
comparable with a run made minutes or hours later, every timed call is
sampled by a small fixed reference job (``ref_job``), run from a
``SIGALRM`` handler every ``INTERVAL`` seconds while the call runs.  The
speed index of one sample is ``REF_NOMINAL_S`` divided by its time, so it
is 1 when the host runs at the nominal speed.  A call's calibrated time
is its own time (the handler's time taken out) times the mean speed index
over the samples taken during it: seconds at the nominal speed.

The reference job does what plthick does most: it hashes tuples of
strings into a dict, builds small frozensets, and sorts both.  It never
touches plthick, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL = 0.1
# Median time of one ref_job on a 2-core x86-64 VM (Intel Xeon, 2.1 GHz,
# Python 3.11) in a quiet phase of its host.
REF_NOMINAL_S = 0.00124

_WORDS = ["w%03d" % i for i in range(64)]


def ref_job():
    """About 1 ms of dict, set and sort work on small tuples of strings.

    Timed next to ``thicken(single_triangle)`` through a noisy phase of the
    host (raw log-time spread 19%), the dict half alone left a spread of
    5.5%, the set half 4.8% and the two together 4.7%."""
    d = {}
    for i in range(1200):
        k = (_WORDS[i % 61], _WORDS[(i * 7) % 59])
        d[k] = d.get(k, 0) + 1
    cells = {frozenset((_WORDS[i % 41], _WORDS[(i * 3) % 37], _WORDS[(i * 5) % 31]))
             for i in range(400)}
    return len(sorted(d)) + len(sorted(map(sorted, cells)))


def speed_sample():
    """One speed index, with the collector held off so that it does not
    charge the program's garbage to the reference job."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        ref_job()
        return REF_NOMINAL_S / (time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()


def speed_now():
    """Mean speed index of ten back-to-back samples."""
    return statistics.fmean(speed_sample() for _ in range(10))


class Sampler:
    """Takes speed samples from a timer signal while armed.

    ``wall`` and ``cpu`` accumulate the time spent in the handler, so a
    caller can take it out of what it measured around the armed section.
    """

    def __init__(self):
        self.speeds = []
        self.wall = 0.0
        self.cpu = 0.0
        self._old = None

    def _tick(self, signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        self.speeds.append(speed_sample())
        self.cpu += time.process_time() - c0
        self.wall += time.perf_counter() - w0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False
