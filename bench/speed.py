"""Host-speed normalisation of timed calls.

The host this benchmark was built on gives one Python thread two or more
speeds: other tenants' load slows a fixed piece of pure-Python work by up
to about 2x, in spells of seconds to minutes, and a spell can outlast a
whole run.  No statistic over a run's own timings can see past that, so
each timed call is scaled by the host's speed at the time it ran.

The speed is read from a fixed reference loop (the kinds of pure-Python
work frobring does, on fixed data) that does not depend on frobring: it is
run between timed calls, never inside one, and a call's time is scaled by
REFERENCE_S / (the mean of the readings just before and just after it).
A reported time is therefore in seconds at the speed at which the
reference loop takes REFERENCE_S.  A change to frobring moves the raw time
of a call and not the reference readings around it, so it moves the
scaled time by the same share.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from time import perf_counter

# The reference loop's time on the uncontended host (see BENCHMARK.md).
REFERENCE_S = 0.002
# A reading is the faster of two back-to-back reference loops, so that an
# interrupt inside one does not count; the garbage collector is off during
# a reading, so the program's heap does not change it.
READING_LOOPS = 2

# Fixed data of the reference loop.
_KEYS = [((i * 7919) % 20011, i % 17) for i in range(3500)]
_BLOCKS = [frozenset(range(i, i + 8)) for i in range(40)]
_SIZE = 20
_TIMES = [[(i * j + i + j) % _SIZE for j in range(_SIZE)] for i in range(_SIZE)]
_PLUS = [[(i + j) % _SIZE for j in range(_SIZE)] for i in range(_SIZE)]


def reference_loop() -> int:
    """About equal shares of four kinds of pure-Python work that frobring
    does: tuple arithmetic mod d, lookups in a dict of a few thousand keys,
    table-driven polynomial products, and frozenset unions.  Each kind
    alone follows the host's speed less closely than the mix."""
    orders, step = (4, 4, 2, 8), (1, 3, 1, 5)
    x, seen = (0, 0, 0, 0), set()
    for _ in range(500):
        x = tuple((a + b) % d for a, b, d in zip(x, step, orders))
        seen.add(x)
    table = {key: n for n, key in enumerate(_KEYS)}
    total = sum(table[key] for key in _KEYS)
    for a0 in range(_SIZE):
        for a1 in range(_SIZE):
            f, g, out = (a0, a1, 1), (a1, a0, 2), [0] * 5
            for i, u in enumerate(f):
                row = _TIMES[u]
                for j, v in enumerate(g):
                    out[i + j] = _PLUS[out[i + j]][row[v]]
            total += out[2]
    unions = {_BLOCKS[i % 40] | _BLOCKS[(i * 7) % 40] for i in range(1200)}
    return total + len(seen) + len(unions)


def reading() -> float:
    """Seconds of one reference loop now."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(READING_LOOPS):
            start = perf_counter()
            reference_loop()
            best = min(best, perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return best


class Speedometer:
    """Readings taken between timed calls, at most one per `every_s`."""

    def __init__(self, every_s: float = 0.02):
        self.every_s = every_s
        self.at: list[float] = []  # when each reading ended
        self.seconds: list[float] = []

    def read(self) -> None:
        value = reading()
        self.at.append(perf_counter())
        self.seconds.append(value)

    def tick(self) -> None:
        """Take a reading if the last one is older than `every_s`."""
        if not self.at or perf_counter() - self.at[-1] >= self.every_s:
            self.read()

    def scale(self, start: float, end: float, seconds: float) -> float:
        """`seconds`, measured from `start` to `end`, at the reference speed.

        Uses the last reading that ended before `start` and the first one
        that ended after `end`; `read()` must have been called on both sides.
        """
        before = self.seconds[bisect_right(self.at, start) - 1]
        after = self.seconds[bisect_left(self.at, end)]
        return seconds * REFERENCE_S / ((before + after) / 2)
