"""Scaling wall-clock times to a reference CPU speed.

On a shared machine the speed a process gets drifts by tens of percent
over seconds (busy hyperthread siblings, neighbours' memory traffic),
and that drift would swamp the differences the benchmark exists to see.
:class:`SpeedProbe` times a fixed pure-Python loop — benchmark code the
program under test never changes — every ~40 ms of a run. An item's
wall time is multiplied by ``REFERENCE_S / t``, where ``t`` is the
median of the loop's last few timings. A program twice as slow still
reads twice as slow; a machine running 30% slow for a few seconds no
longer does.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

__all__ = ["REFERENCE_S", "SpeedProbe", "reference_work"]

#: The reference loop's time on an uncontended 2.1 GHz x86-64 core.
REFERENCE_S = 0.0005
#: Re-time the loop when its last timing is older than this (seconds).
EVERY_S = 0.04
#: The scale uses the median of this many latest timings.
WINDOW = 9


def reference_work() -> int:
    """A fixed mix of integer, dict, Fraction and bytes work (~0.5 ms)."""
    table: dict[int, int] = {}
    total = 0
    exact = Fraction(0)
    for i in range(1200):
        table[i % 97] = table.get(i % 97, 0) + i
        total += (i * 2654435761) % 1009
        if i % 50 == 0:
            exact += Fraction(i, 7)
    return total + len((bytes(range(256)) * 16).hex()) + exact.numerator


class SpeedProbe:
    """Tracks the machine's current speed relative to the reference."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def measure(self) -> float:
        start = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - start
        self.samples = (self.samples + [elapsed])[-WINDOW:]
        self._last = time.perf_counter()
        return elapsed

    def scale(self) -> float:
        """Factor turning wall seconds into reference-speed seconds;
        re-measures when the last measurement is older than :data:`EVERY_S`."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.measure()
        return REFERENCE_S / statistics.median(self.samples)
