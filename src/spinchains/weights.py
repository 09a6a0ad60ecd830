"""Exact integer arithmetic on gl(n)/sl(n) weights in doubled coordinates.

Weight vectors are stored as 2x their standard coordinates so that
half-integral weights (rho for even n, the lambda of a half-integral
infinitesimal character) stay in plain ints.  Everything computed here
(dominance, norms, signs of pairings against fundamental coweights) is
invariant under that fixed overall scaling, so callers only ever compare
doubled values with doubled values.  No floats anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul, sub

Weight = tuple[int, ...]


@lru_cache(maxsize=64)
def rho_doubled(n: int) -> Weight:
    """Half sum of positive roots of gl(n), doubled: (n-1, n-3, ..., 1-n)."""
    if n < 1:
        raise ValueError("rank must be positive")
    return tuple(n - 1 - 2 * i for i in range(n))


def dominant(v) -> Weight:
    """Weakly decreasing rearrangement: the dominant S_n-orbit representative."""
    return tuple(sorted(v, reverse=True))


def norm_sq(v) -> int:
    """Squared euclidean norm, a positive multiple of the Killing norm."""
    v = tuple(v)
    return sum(map(mul, v, v))


def spin_norm_sq(delta: Weight) -> int:
    """Squared spin norm ||{delta - rho} + rho||^2 of a doubled weight."""
    rho = rho_doubled(len(delta))
    return norm_sq(map(add, sorted(map(sub, delta, rho), reverse=True), rho))


def fundamental_pairing_signs(v: Weight) -> tuple[int, ...]:
    """For i = 1..n-1 return n*S_i - i*S_n, with S_i the i-th partial sum of v.

    Each value is a positive multiple of the sl(n) pairing of v against the
    i-th fundamental coweight, so sign tests on it are exact without ever
    leaving the integers.  Adding a constant to every coordinate of v does
    not change the result.
    """
    n = len(v)
    total = sum(v)
    out = []
    partial = 0
    for i in range(1, n):
        partial += v[i - 1]
        out.append(n * partial - i * total)
    return tuple(out)


def to_fundamental(v: Weight) -> tuple[int, ...]:
    """Coefficients on the fundamental weights of a dominant vector.

    For gl(n) in coordinates these are just the differences of neighbouring
    entries; the result stays in the same (doubled) scale as the input.
    """
    for a, b in zip(v, v[1:]):
        if a < b:
            raise ValueError(f"not weakly decreasing: {v}")
    return tuple(a - b for a, b in zip(v, v[1:]))


def from_fundamental(coeffs, last: int = 0) -> Weight:
    """Rebuild a coordinate vector from neighbour differences and its last entry."""
    out = [last]
    for c in reversed(tuple(coeffs)):
        out.append(out[-1] + c)
    return tuple(reversed(out))
