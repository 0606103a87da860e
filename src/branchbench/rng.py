"""Deterministic 64-bit PRNG used by the instance generators.

The generator is xorshift64* (Marsaglia's xorshift with Vigna's multiplier):

    x ^= x >> 12;  x ^= x << 25;  x ^= x >> 27;  output = x * 0x2545F4914F6CDD1D

all on 64-bit unsigned words.  The state is initialised by passing the seed
through one round of the splitmix64 mixer (constants 0x9E3779B97F4A7C15,
0xBF58476D1CE4E5B9, 0x94D049BB133111EB) so that seed 0 does not hit the
all-zero fixed point.  Both algorithms are published with these exact
constants, so instance streams can be reproduced in any language.

Derived helpers are pinned too: ``below(n)`` is ``next_u64() % n``,
``shuffle`` is a Fisher-Yates pass from the highest index down, and
``sample`` is a partial Fisher-Yates that keeps the first k slots; both
draw each swap index as ``below`` would, by ``next_u64() % n``.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

_MASK64 = (1 << 64) - 1

T = TypeVar("T")


def splitmix64(x: int) -> int:
    """One splitmix64 mixing step on a 64-bit word."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """xorshift64* stream seeded through splitmix64."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        state = splitmix64(seed & _MASK64)
        # all-zero state would be a fixed point of the xorshift step
        self.state = state if state != 0 else 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n).  Defined as next_u64() % n."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, swapping from the top index down."""
        draw = self.next_u64
        for i in range(len(items) - 1, 0, -1):
            j = draw() % (i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """k items without replacement: partial Fisher-Yates, first k slots kept."""
        if not 0 <= k <= len(items):
            raise ValueError("sample size out of range")
        pool = list(items)
        draw = self.next_u64
        n = len(pool)
        for i in range(k):
            j = i + draw() % (n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
