"""Host-speed gauge: a fixed reference computation timed between items.

The benchmark runs on a few cores of a shared host.  Other tenants slow
every computation on it by up to about 2x, in periods that last from a
second to several minutes, so a whole run can fall inside one and taking
the best of many repetitions does not help.  The slow-down moves a
reference computation and the program's items together, so each item's
time is scaled by the reference's nominal time over its time measured next
to the item.  A figure then reads as the time the item would take when the
reference takes its nominal time.

The reference does the two kinds of work the program spends its time on:
Python-level loops of small-int ``divmod``, as in the digit-sum scans of
``bfile`` and ``sparse``, and ``Fraction`` sums with growing denominators,
as in the rational arithmetic of ``oracle`` and ``grid``.  Timed apart on
all four workloads, neither kind tracked every workload better than the
two together.  The reference is the benchmark's own code, so a change to
the program does not move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median time of one reference sample on a 2-vCPU shared x86-64 host with
# Python 3.11 in its faster periods.  It only sets the scale of the figures.
NOMINAL_NS = 800_000
EVERY_NS = 10_000_000  # time from the end of one sample to the next
WINDOW = 2  # samples on each side of an item that set its scale
FIRST = 3  # samples taken before the first item; they also scale set-up


def reference() -> Fraction:
    """The fixed reference computation: digit sums, then a sum of fractions."""
    total = 0
    for start in range(10**12, 10**12 + 100):
        for base in (3, 7):
            n = start
            while n:
                n, d = divmod(n, base)
                total += d
    acc = Fraction(total)
    for k in range(1, 150):
        acc += Fraction(k * k + 1, 2 * k + 3)
    return acc


class Gauge:
    """Reference samples taken between the items of one pass."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.samples: list[int] = []
        self.spent_ns = 0  # time inside the reference, not in any item
        self._due = 0
        for _ in range(FIRST):
            self.sample()

    def sample(self) -> None:
        start = self.clock()
        reference()
        end = self.clock()
        self.samples.append(end - start)
        self.spent_ns += end - start
        self._due = end + EVERY_NS

    def between(self) -> int:
        """Call between two items: take a sample when one is due.

        Returns the number of samples taken before this call, the mark
        ``scales`` needs for the item that just ended.
        """
        mark = len(self.samples)
        if self.clock() >= self._due:
            self.sample()
        return mark

    def setup_scale(self) -> float:
        """Scale for the set-up, which ran just before the first samples."""
        return NOMINAL_NS / statistics.median(self.samples[:FIRST])

    def scales(self, marks: list[int]) -> list[float]:
        """Scale of each item, from the samples around the item's mark."""
        self.sample()  # so the last items have a sample after them too
        cache: dict[int, float] = {}
        out = []
        for mark in marks:
            if mark not in cache:
                near = self.samples[max(mark - WINDOW, 0) : mark + WINDOW]
                cache[mark] = NOMINAL_NS / statistics.median(near)
            out.append(cache[mark])
        return out

    def host_speed(self) -> float:
        """Nominal over median sample time: 1 at nominal speed, lower when slowed."""
        return NOMINAL_NS / statistics.median(self.samples)
