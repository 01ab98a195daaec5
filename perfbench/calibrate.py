"""A fixed pure-Python loop whose time tracks the host's speed.

The benchmark shares a few cores of a host with other work, and the speed
of those cores drifts by up to half from minute to minute (a fixed loop's
median over 2 s ranged 21-31 ms within one 20 s span). The drift moves
processor time as much as wall time, so it is not time spent waiting; it
is the cores running slower. run.py times one calibration round before
every job and after the last, and scales each job's time by

    REFERENCE_ROUND_S / (mean of the rounds on either side of the job)

so that the reported times read as seconds on a host where one round
takes REFERENCE_ROUND_S. The loop does the kinds of work `baric` does --
Fraction arithmetic, small-integer arithmetic mod p, dunder methods on a
small class, dict and list traffic -- and never calls `baric`, so a change
to the program under test cannot change it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# One round's time on the 2-core host the benchmark was defined on, at its
# fastest. It only fixes the unit: any constant would compare versions alike.
REFERENCE_ROUND_S = 0.0025


class _Mod7:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % 7

    def __add__(self, other):
        return _Mod7(self.v + other.v)

    def __mul__(self, other):
        return _Mod7(self.v * other.v)

    def __bool__(self):
        return self.v != 0


def _work():
    acc = Fraction(0)
    table = {}
    total = _Mod7(0)
    rows = [[_Mod7(i + j) for j in range(6)] for i in range(6)]
    for i in range(1, 400):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        key = (i % 13, i % 11)
        table[key] = table.get(key, 0) + (i * i) % 31
        row = rows[i % 6]
        for a, b in zip(row, rows[(i + 1) % 6]):
            product = a * b
            if product:
                total = total + product
    return acc, len(table), total.v


def round_seconds():
    """Wall time of one calibration round."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0
