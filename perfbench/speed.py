"""Machine-speed probe: a fixed pure-Python kernel timed between rounds.

On a shared machine, other tenants slow every process by up to half for tens
of seconds at a time, which no statistic taken inside one run removes.  The
benchmark times this kernel before and after each round and scales the
round's times by ``REFERENCE_S / kernel time``, so its figures read as
seconds on the machine at its reference speed.  The kernel mixes the kinds
of work the solver does (bit tricks over small integers, scattered reads
over a 2 MB array, short-lived objects, integer arithmetic), so a slowdown
moves it and the solver alike.  It uses nothing from the library, so a
change to the library does not move it.
"""

from __future__ import annotations

import random
import statistics
import time
from array import array

# Median kernel time on the reference machine: Python 3.11.7 on a 2-vCPU
# x86-64 host at 2.1 GHz, in a quiet period.
REFERENCE_S = 0.0021
BURST_S = 0.1  # one measurement times the kernel repeatedly for this long

_TABLE_BITS = 18


class _Node:
    __slots__ = ("value", "pair", "spare")

    def __init__(self, value: int, pair: tuple[int, int]) -> None:
        self.value = value
        self.pair = pair
        self.spare = None


class SpeedProbe:
    def __init__(self) -> None:
        rng = random.Random(20100902)
        self._masks = [rng.getrandbits(24) for _ in range(64)]
        self._supports = [[rng.getrandbits(24) for _ in range(24)] for _ in range(64)]
        self._lookup = {i: 3 * i for i in range(256)}
        self._table = array("q", (rng.getrandbits(30) for _ in range(1 << _TABLE_BITS)))

    def kernel(self) -> int:
        acc = 0
        masks, supports, lookup = self._masks, self._supports, self._lookup
        for k in range(64):
            sup, partner, t = supports[k], masks[(7 * k) % 64], masks[k]
            while t:
                b = t & -t
                if sup[b.bit_length() - 1] & partner:
                    acc ^= b
                acc += lookup[(k * b.bit_length()) & 255]
                t ^= b
        table, i, wrap = self._table, 12345, (1 << _TABLE_BITS) - 1
        for _ in range(5000):
            v = table[i]
            acc ^= v
            i = (v ^ (i * 2654435761)) & wrap
        stack = []
        for i in range(1500):
            stack.append(_Node(i, (i, i + 1)))
            if len(stack) > 20:
                acc += stack.pop().pair[1]
        for i in range(7500):
            acc += i * i % 7
        return acc

    def measure(self) -> float:
        """Median kernel time over one burst, in seconds."""
        times = []
        clock = time.perf_counter
        end = clock() + BURST_S
        while clock() < end:
            start = clock()
            self.kernel()
            times.append(clock() - start)
        return statistics.median(times)
