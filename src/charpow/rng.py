"""Deterministic seeded randomness.

All randomness in the package flows from a single 64-bit seed through
SplitMix64; the generator, ``below`` and ``random_unimodular`` below, and
the samplers built on them (``classfn.c0_random``, seeded sections) are
part of the interface contract, so seeded runs are reproducible across
platforms and reimplementable in other languages.

SplitMix64 (Steele-Lea-Flood): state advances by the odd constant
0x9E3779B97F4A7C15; output is the finalizer
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
    z ^= z >> 27; z *= 0x94D049BB133111EB;
    z ^= z >> 31;
with all arithmetic mod 2^64.  ``below(n)`` is plain ``next_u64() % n``.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # the state's increment per draw


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n

    def next_u64_array(self, count: int):
        """The next count outputs at once, as a uint64 array, with the state advanced past them.

        The state after draw k is state + k * GAMMA mod 2^64; uint64 array
        arithmetic wraps mod 2^64 without a warning.
        """
        z = np.uint64(self.state) + np.arange(1, count + 1, dtype=np.uint64) * GAMMA
        self.state = (self.state + count * GAMMA) & MASK64
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)


def random_unimodular(rng: SplitMix64, n: int):
    """Integer matrix of determinant +-1, built from 3n seeded shear steps.

    Each step draws (i, j, c, s): row_i += (-1)^s * c * row_j with
    i != j and c in {1, 2, 3}.  For n = 1 the result is (-1)^s.
    """
    if n == 1:
        sign = 1 if rng.below(2) == 0 else -1
        return ((sign,),)
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i = rng.below(n)
        j = rng.below(n - 1)
        if j >= i:
            j += 1
        c = 1 + rng.below(3)
        if rng.below(2):
            c = -c
        rows[i] = [u + c * v for u, v in zip(rows[i], rows[j])]
    return tuple(tuple(row) for row in rows)
