"""Seeded, portable random streams.

All randomness in this package flows through :class:`PortableRng`, a
counter-based stream built on the SplitMix64 output permutation.  For a seed
``s`` the i-th raw draw (i starting at 1) is::

    out_i = mix64((s + i * 0x9E3779B97F4A7C15) mod 2**64)

where ``mix64`` is::

    z ^= z >> 30;  z = (z * 0xBF58476D1CE4E5B9) mod 2**64
    z ^= z >> 27;  z = (z * 0x94D049BB133111EB) mod 2**64
    z ^= z >> 31

Uniform doubles take the top 53 bits, ``((out >> 11) + 1) * 2**-53``, which
lies in (0, 1]; normal deviates apply the Box-Muller transform to consecutive
uniform pairs (both outputs of each pair are used, in cos/sin order).  The
construction is plain integer and IEEE-754 double arithmetic, so a fixed seed
reproduces the same stream bit for bit on any platform.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["PortableRng"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = 0xFFFFFFFFFFFFFFFF


def _integer(value, name: str) -> int:
    """``value`` as a Python int.  A bool or a non-integer raises a
    TypeError naming ``name`` instead of being truncated to another seed."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer (got {value!r})")


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """``mix64`` of every entry of the uint64 array ``z``."""
    z = z ^ (z >> np.uint64(30))
    z = z * _MIX1
    z = z ^ (z >> np.uint64(27))
    z = z * _MIX2
    return z ^ (z >> np.uint64(31))


class PortableRng:
    """Deterministic counter-based random stream (see module docstring).

    The instance keeps a draw counter, so successive calls continue the same
    stream; two instances with the same seed replay identical values.  The
    seed is any integer, numpy's included, taken modulo 2**64.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(_integer(seed, "seed") & _U64_MASK)
        self._position = 0

    def raw(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit outputs as a uint64 array."""
        if count < 0:
            raise ValueError("count must be non-negative")
        start = self._position + 1
        idx = np.arange(start, start + count, dtype=np.uint64)
        self._position += count
        return _mix64_array(self._seed + idx * _GOLDEN)

    def uniforms(self, count: int) -> np.ndarray:
        """Doubles in (0, 1], one per raw draw."""
        bits = (self.raw(count) >> np.uint64(11)).astype(np.float64)
        return (bits + 1.0) * 2.0**-53

    def normals(self, count: int) -> np.ndarray:
        """Standard normal deviates via Box-Muller on uniform pairs."""
        if count < 0:
            raise ValueError("count must be non-negative")
        pairs = (count + 1) // 2
        u1 = self.uniforms(pairs)
        u2 = self.uniforms(pairs)
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:count]

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n), via argsort of uniforms."""
        return np.argsort(self.uniforms(n), kind="stable")


def derive_seed(seed: int, key: int) -> int:
    """Deterministic per-key seed, used for per-round substreams:
    ``mix64(s ^ mix64(key + 1))`` with ``s`` the seed and ``key + 1`` both
    taken modulo 2**64, so any integers work, negative ones included."""
    s = np.uint64(_integer(seed, "seed") & _U64_MASK)
    k = np.array([(_integer(key, "key") + 1) & _U64_MASK], dtype=np.uint64)
    return int(_mix64_array(s ^ _mix64_array(k))[0])
