"""Machine speed, measured with a fixed reference kernel.

The shared 2-core virtual machine this benchmark was tuned on changes speed
by up to ±40% within a minute, and process CPU time moves with wall time,
so no clock isolates the program from it.  The reference kernel is a fixed
pure-Python modular sparse matvec loop, the same kind of work as the
program's pure backend, owned by the benchmark so that no change to the
program changes it.  Timing it right before and after each measured item
gives the machine's speed at that moment, and

    reference seconds = wall seconds * NOMINAL_S / (reference time)

is the item's time on a machine where the reference takes NOMINAL_S.
"""

from __future__ import annotations

import random
import time

NOMINAL_S = 0.010
_N, _P, _ITERATIONS = 64, (1 << 61) - 1, 160


def _fixed_data():
    rng = random.Random(0)
    entries = [(i, j, rng.randint(-100, 100))
               for i in range(_N) for j in rng.sample(range(_N), 4)]
    return entries, [rng.randrange(_P) for _ in range(_N)]


_ENTRIES, _X0 = _fixed_data()


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    x = _X0
    for _ in range(_ITERATIONS):
        out = [0] * _N
        for i, j, v in _ENTRIES:
            out[i] = (out[i] + v * x[j]) % _P
        x = out
    return time.perf_counter() - t0


class Pace:
    """Converts the wall time of consecutive items into reference seconds."""

    def __init__(self):
        self._before = reference_seconds()

    def scale(self, wall_s: float) -> float:
        """Reference seconds of the item that just ended after `wall_s`."""
        after = reference_seconds()
        ref = (self._before + after) / 2
        self._before = after
        return wall_s * NOMINAL_S / ref
