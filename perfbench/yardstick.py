"""The yardstick: a fixed pure-Python loop that measures machine speed.

The benchmark reports the program's wall time in yardsticks
(``wall_calib``) and its set-up time scaled to a nominal yardstick
(``setup_s``), because the machine it runs on may slow down for seconds
at a time; the yardstick, timed next to the program, slows down with it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction


def _yardstick() -> int:
    """A fixed pure-Python loop in the program's style: Fractions, tuples, dicts."""
    total = Fraction(0)
    table: dict = {}
    for i in range(1, 3000):
        total += Fraction(i % 7, i % 5 + 1)
        key = tuple((i * k) % 13 for k in range(6))
        table[key] = table.get(key, 0) + 1
    return len(table) + total.denominator


class Yardstick:
    """How fast this machine runs while one suite runs.

    The yardstick is timed three times before the suite, every
    ``PERIOD_S`` during it (from a timer signal) and three times after it,
    so a slowdown that starts or ends inside a long suite is seen.  The
    in-suite samples' own time is kept in ``inside_s`` for the caller to
    take out of the suite's wall time.  Traced passes take no in-suite
    samples, which would land in some span's self time.
    """

    PERIOD_S = 0.25

    def __init__(self, ticks: bool):
        self.ticks = ticks
        self.samples: list[float] = []
        self.inside_s = 0.0
        _yardstick()  # the first run is slower while the interpreter specialises it
        if ticks:
            signal.signal(signal.SIGALRM, self._tick)

    def _sample(self) -> float:
        began = time.perf_counter()
        _yardstick()
        took = time.perf_counter() - began
        self.samples.append(took)
        return took

    def _tick(self, signum, frame) -> None:
        self.inside_s += self._sample()

    def before(self) -> None:
        self.samples = [self._sample() for _ in range(3)]
        self.inside_s = 0.0

    def start_ticks(self) -> None:
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop_ticks(self) -> None:
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def after(self) -> float:
        """Mean yardstick seconds around and during the suite."""
        for _ in range(3):
            self._sample()
        return statistics.fmean(self.samples)
