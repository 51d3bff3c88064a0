"""Host speed, sampled on the measuring thread while the measured work runs.

The benchmark runs on shared virtual CPUs whose speed for interpreter-bound
code drifts by up to 1.7x within minutes, at every time scale from seconds to
tens of minutes. No statistic over one run removes that drift, so every time
the benchmark reports is rescaled by the host speed measured during that
time: a SIGALRM timer interrupts the work every ``PERIOD_S`` and times a fixed
pure-Python reference loop on the same thread. The median loop time during
the measured interval gives the scale

    nominal seconds = wall seconds x NOMINAL_LOOP_S / median loop time,

so a reported time is the wall time the work would have taken on a host
where the loop takes ``NOMINAL_LOOP_S``. The loop does not touch qthermo, so
a change to the program moves the wall time but not the scale. It costs about
1.5 % of the measured interval, and it samples the thread that runs the
measurement, which is the thread that does the work except in the CLI's sweep
pool.

Usage::

    with HostSpeed() as speed:
        work()
    nominal_s = wall_s * speed.scale()
"""

import signal
import statistics
import time

PERIOD_S = 0.02
LOOP_ITERATIONS = 1000
# The reference loop's time on a quiet host of the kind the benchmark was
# defined on (a 2-vCPU Xeon KVM guest). It only sets the unit: reported
# times are in seconds of a host where the loop takes this long.
NOMINAL_LOOP_S = 2.5e-4


def _reference_loop():
    x = 12345
    acc = 0.0
    for _ in range(LOOP_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += (x % 1000) * 1e-3
    return acc


class HostSpeed:
    """Context manager that samples the reference loop every ``PERIOD_S``."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _reference_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self):
        """Nominal seconds per wall second over the sampled interval."""
        if not self.samples:
            raise RuntimeError("no host-speed sample: the interval was shorter "
                               f"than {PERIOD_S} s or never ran Python code")
        return NOMINAL_LOOP_S / statistics.median(self.samples)

