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

import numbers

import numpy as np

from .errors import RangeError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def checked_seed(field: str, seed) -> int:
    """``seed`` as an int in [0, 2^64), else RangeError naming ``field``.

    mix64 reduces seeds mod 2^64, so a seed outside that range would
    silently repeat the streams of the one inside it.
    """
    integral = isinstance(seed, numbers.Integral) and not isinstance(seed, bool)
    if not (integral and 0 <= seed <= _MASK64):
        raise RangeError(field, f"must be an integer in [0, 2^64), got {seed!r}")
    return int(seed)


def mix64(master_seed: int, index: int) -> int:
    """Derive the 64-bit seed of substream ``index`` from ``master_seed``."""
    z = (int(master_seed) + (int(index) + 1) * _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def substream(master_seed: int, index: int) -> np.random.Generator:
    """A fresh generator for substream ``index`` of ``master_seed``."""
    return np.random.default_rng(mix64(master_seed, index))
