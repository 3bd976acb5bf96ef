"""Reproducible random streams.

Every replicate gets its own generator, seeded by a splitmix64 finalizer over
(master_seed, index).  The mixing is pure integer arithmetic, so the stream
structure can be reproduced in any language: replicate r uses

    z = (master_seed + (r + 1) * 0x9E3779B97F4A7C15) mod 2^64
    z ^= z >> 30;  z = z * 0xBF58476D1CE4E5B9 mod 2^64
    z ^= z >> 27;  z = z * 0x94D049BB133111EB mod 2^64
    z ^= z >> 31

as the seed of a fresh PCG64 generator.
"""

from __future__ import annotations

import numpy as np

from .errors import checked_int

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# mix64 reduces seeds mod 2^64, so a seed above this would silently repeat
# the streams of one below it.
MAX_SEED = _MASK64


def mix64(master_seed: int, index: int) -> int:
    """Derive the 64-bit seed of substream ``index`` from ``master_seed``.

    Either argument outside [0, 2^64), or not an integer (a bool included),
    raises RangeError naming it.
    """
    master_seed = checked_int("master_seed", master_seed, 0, MAX_SEED)
    index = checked_int("index", index, 0, MAX_SEED)
    z = (master_seed + (index + 1) * _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def substream(master_seed: int, index: int) -> np.random.Generator:
    """A fresh generator for substream ``index`` of ``master_seed``."""
    return np.random.default_rng(mix64(master_seed, index))
