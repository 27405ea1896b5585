"""64-bit hash mixers over byte-string keys.

Speed matters here — every simulated table operation starts with one or
two of these — so the hot functions work on a single Python integer
(``int.from_bytes`` of the key) and use only shifts/multiplies masked to
64 bits. ``TabulationHasher`` is the theoretical heavyweight (3-wise
independence) backed by a numpy table.
"""

from __future__ import annotations

import random
from typing import Callable

import numpy as np

_MASK64 = (1 << 64) - 1

#: 2^64 / golden ratio, the classic Fibonacci-hashing multiplier.
_FIB_MULT = 0x9E3779B97F4A7C15

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def splitmix64(x: int) -> int:
    """One round of the splitmix64 finalizer — a fast, well-distributed
    64-bit mixer (used by xxHash/wyhash finalizers)."""
    x = (x + _FIB_MULT) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def fibonacci_hash(x: int) -> int:
    """Multiplicative hashing with the golden-ratio constant."""
    return ((x ^ (x >> 32)) * _FIB_MULT) & _MASK64


def multiply_shift(x: int, a: int, b: int = 0) -> int:
    """Dietzfelbinger multiply-shift: ``(a*x + b) mod 2^64``.

    With odd random ``a`` this is universal for 64-bit keys; combined
    with taking high bits for the table index it is the cheapest sound
    scheme and the default inside :class:`HashFamily`.
    """
    return (a * x + b) & _MASK64


def fnv1a64(data: bytes) -> int:
    """FNV-1a over raw bytes. Byte-at-a-time, so only used for wide keys
    (e.g. 16-byte fingerprints) where an int conversion would lose
    distribution quality is not a concern but API symmetry is."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


class TabulationHasher:
    """Simple tabulation hashing: XOR of per-byte random tables.

    3-wise independent and strongly concentrated for linear probing
    (Pătraşcu–Thorup), which makes it the right choice for the linear
    probing baseline's worst-case tests.
    """

    def __init__(self, seed: int, key_bytes: int = 8) -> None:
        rng = np.random.default_rng(seed)
        self.key_bytes = key_bytes
        self._table = rng.integers(
            0, 1 << 63, size=(key_bytes, 256), dtype=np.uint64
        ) ^ (
            rng.integers(0, 1 << 63, size=(key_bytes, 256), dtype=np.uint64)
            << np.uint64(1)
        )

    def __call__(self, x: int) -> int:
        h = 0
        table = self._table
        for i in range(self.key_bytes):
            h ^= int(table[i, (x >> (8 * i)) & 0xFF])
        return h


def tabulation_hash(seed: int, key_bytes: int = 8) -> TabulationHasher:
    """Build a seeded :class:`TabulationHasher`."""
    return TabulationHasher(seed, key_bytes)


class HashFamily:
    """Seeded family of 64-bit hash functions over byte-string keys.

    ``family.function(i)`` returns an ``(bytes) -> int`` callable; distinct
    indices give (with overwhelming probability) independent functions.
    Keys wider than 8 bytes are folded 8 bytes at a time through
    splitmix64 before the per-function multiply-shift, so all key widths
    used by the traces (8, 16 bytes) share one code path.
    """

    def __init__(self, seed: int = 0x5EED) -> None:
        self.seed = seed
        self._params: dict[int, tuple[int, int]] = {}

    def __deepcopy__(self, memo) -> "HashFamily":
        """Shared, not copied: members are pure functions of the seed."""
        return self

    def _param(self, index: int) -> tuple[int, int]:
        params = self._params.get(index)
        if params is None:
            rng = random.Random((self.seed << 16) ^ splitmix64(index))
            a = rng.getrandbits(64) | 1  # odd multiplier for universality
            b = rng.getrandbits(64)
            params = (a, b)
            self._params[index] = params
        return params

    def function(self, index: int) -> Callable[[bytes], int]:
        """Return the ``index``-th member of the family."""
        a, b = self._param(index)

        def _hash(key: bytes) -> int:
            x = 0
            for off in range(0, len(key), 8):
                x = splitmix64(x ^ int.from_bytes(key[off : off + 8], "little"))
            # finalize with a full-avalanche mixer: tables reduce with
            # `% n` for power-of-two n, and a bare multiply-shift keeps
            # its low bits congruent across family members (odd `a`
            # preserves x ≡ x' mod 2^k), which would make h1-collisions
            # imply h2-collisions and silently strip two-hash schemes of
            # their independence
            return splitmix64(multiply_shift(x, a, b))

        return _hash

    def pair(self) -> tuple[Callable[[bytes], int], Callable[[bytes], int]]:
        """Convenience: ``(h1, h2)`` for two-function schemes."""
        return self.function(0), self.function(1)
