"""Machine-speed calibration.

The host's speed drifts by up to a factor of two within seconds (other
tenants, frequency changes), which would swamp any change in the program.
So the benchmark times a fixed reference loop while it runs and reports
every time scaled to a reference speed:

    reported seconds = measured seconds * REF_S / reference loop seconds

A timer signal runs the loop every INTERVAL_S in the middle of whatever is
executing, so the speed is known during an operation, not only around it;
the time spent in those ticks is taken out of the operation's time.  The
loop is the benchmark's own code and does what the package's hot paths do
(Fraction arithmetic, dict updates with tuple keys), so a change to the
package cannot move it.
"""

import signal
import statistics
from fractions import Fraction
from time import perf_counter

REF_S = 0.003        # reference loop seconds at the reference speed
INTERVAL_S = 0.25    # timer period of the in-flight samples
LOOP = 800           # iterations of the reference loop


def _reference_work():
    acc = {}
    x = Fraction(0)
    for i in range(1, LOOP):
        key = (i % 13, i % 7)
        x = acc.get(key, Fraction(0)) + Fraction(i % 11 - 5, i % 17 + 1)
        acc[key] = x
    return x


def measure():
    """Reference loop seconds: the median of three back to back, so a loop
    that starts on caches another computation left cold does not count."""
    times = []
    for _ in range(3):
        start = perf_counter()
        _reference_work()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Reference loop timed between operations and, from a timer signal,
    every INTERVAL_S during them."""

    def __init__(self):
        self.ticks = []  # (start, seconds spent, reference loop seconds)

    def _tick(self, signum=None, frame=None):
        start = perf_counter()
        loop = measure()
        self.ticks.append((start, perf_counter() - start, loop))

    def between(self):
        """Calibrate between operations unless a tick is recent."""
        if perf_counter() - self.ticks[-1][0] >= INTERVAL_S:
            self._tick()

    def __enter__(self):
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        return False

    def normalise(self, start, seconds):
        """Seconds of [start, start + seconds] at the reference speed.

        Ticks inside the interval are subtracted.  The speed is the mean of
        the ticks inside and of the nearest tick on either side.
        """
        end = start + seconds
        inside = [(spent, loop) for t, spent, loop in self.ticks if start <= t <= end]
        before = [loop for t, _, loop in self.ticks if t < start][-1:]
        after = [loop for t, _, loop in self.ticks if t > end][:1]
        loops = before + [loop for _, loop in inside] + after
        return (seconds - sum(spent for spent, _ in inside)) * REF_S / statistics.mean(loops)

    def median(self):
        return statistics.median(loop for _, _, loop in self.ticks)
