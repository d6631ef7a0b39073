"""The host's speed, from a fixed reference timed around every measurement.

The benchmark runs on a few cores of a shared host whose speed for identical
work drifts by up to a factor of two over tens of seconds: one process
repeating the 8-sample ``guided_default`` audit 480 times took between 0.61
and 1.38 s per repetition, in stretches of 10 to 60 s at one speed. Two sets
of ten 25-second runs of one commit spread by 0.17 and 0.29 of their median
throughput.

So every audit runs between two timings of the reference loop below, and
its time is scaled to the host speed at which the loop takes ``NOMINAL_S``::

    scaled = measured * NOMINAL_S / mean(loop time before, loop time after)

The loop mixes the kinds of work the audits do: a gradient step on a batch
of 3 rows, interpreter work on a dict, and now and then a comparison over a
4096-row batch. A set-up starts a process and imports, which the loop does
not track: in one half hour set-ups took a quarter longer than in the next
while the loop's time stayed put. So each set-up is scaled the same way by
its own reference, ``INTERPRETER``, timed before and after it (probe.py).

Neither reference uses anything of the package, so a change to the program
never changes them: a program twice as fast reads twice as fast.
"""

from __future__ import annotations

import sys
import time

import numpy as np

#: rounds of one reference timing
ROUNDS = 8000
#: the loop's time at the nominal host speed; BASELINE.json records its
#: median time over the baseline runs as ``reference_s_median``
NOMINAL_S = 0.24


def reference_loop(rounds: int = ROUNDS) -> float:
    rng = np.random.default_rng(0)
    w1 = rng.standard_normal((4, 16)) * 0.3
    w2 = rng.standard_normal((16, 4)) * 0.3
    x = rng.standard_normal((3, 4))
    bids = rng.random((4096, 5))
    table = {}
    acc = 0.0
    for i in range(rounds):
        h = np.tanh(x @ w1)
        y = h @ w2
        x = np.clip(x - 1e-3 * (((1.0 - h * h) * (y @ w2.T)) @ w1.T), -1.0, 1.0)
        acc += float(y.sum())
        for j in range(20):
            table[(i + j) % 97] = table.get((i * j) % 97, 0.0) + acc * 1e-9
        if i % 64 == 0:
            acc += float(np.where(bids > bids[i % 4096], bids, 0.0).max(axis=1).sum()) * 1e-9
    return acc


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


#: the reference for set-up times, which start a process and import: a fresh
#: interpreter that imports numpy and nothing of the package
INTERPRETER = (sys.executable, "-c", "import numpy")
#: its time at the nominal host speed; BASELINE.json records its median
#: time over the baseline runs as ``interpreter_s_median``
INTERPRETER_NOMINAL_S = 0.2


class HostSpeed:
    """Times the reference loop once now and again at each ``scale`` call."""

    def __init__(self):
        reference_loop()  # the first run is slower than later ones
        self.last = time_reference()
        #: every reference timing, in order
        self.times = [self.last]

    def scale(self, seconds: float) -> float:
        """``seconds``, measured since the previous reference timing, scaled
        to the nominal host speed."""
        before, self.last = self.last, time_reference()
        self.times.append(self.last)
        return seconds * NOMINAL_S / ((before + self.last) / 2)
