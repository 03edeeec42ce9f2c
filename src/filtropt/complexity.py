"""Linear complexity and exact minimal period measurement.

Berlekamp-Massey runs over GF(2) with the connection polynomial kept as an
int bitmask (bit i = coefficient of x^i, constant term always set), which
makes the discrepancy a single masked popcount per step.  The connection
polynomial's degree can fall below the register length when the oldest tap
of the minimal LFSR is zero (e.g. a prefix of leading zeros); lc is the
register length, and the missing high taps are zero coefficients.

The periodic measurements use no filter theory:

- periodic_lc_packed is N - deg gcd(x^N - 1, z(x)), where z(x) is the sum
  of z_n x^n over one period of N bits (Ding, Xiao & Shan, The Stability
  Theory of Stream Ciphers, 1991): the generating function of the periodic
  sequence is z(x) / (1 - x^N), and in lowest terms its denominator
  (x^N - 1) / gcd is the minimal connection polynomial.  The gcd is
  field.poly_gcd, Euclid's algorithm on GF(2) polynomials held as ints.
- min_period_packed descends from the length over its prime factors,
  dividing by p while the period is invariant under rotation by P/p: one
  rotation test per prime factor removed, plus one per distinct prime,
  instead of one per divisor.

The census measures whole blocks of short periods at once: for periods of
at most WORD_MAX_PERIOD bits, one numpy uint64 lane per sequence,
periodic_lc_words runs full Berlekamp-Massey over both copies of the period
(2N bits, no early exit) in every lane together, and min_period_words makes
the same prime-factor descent as rotation tests on the lanes.

linear_complexity_periodic keeps full 2p-bit Berlekamp-Massey as the
reference the gcd kernel is tested against; the two share no code.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .field import _check_period, _prime_factors, poly_gcd

# Longest period a word lane holds: BM's connection polynomial has degree at
# most lc <= N, so N + 1 coefficient bits must fit in 64.
WORD_MAX_PERIOD = 63


def bits_to_int(bits: Sequence[int]) -> int:
    """Pack s_0, s_1, ... with s_n at bit n."""
    return sum((b & 1) << n for n, b in enumerate(bits))


_BM_BLOCK = 256  # bits read from seq at a time, so no step shifts the whole input
_BM_MASK = (1 << _BM_BLOCK) - 1


def berlekamp_massey_packed(seq: int, length: int) -> tuple[int, int]:
    """Berlekamp-Massey on a packed bit sequence; returns (lc, connection poly)."""
    c, b, lc, m = 1, 1, 0, -1
    rev = 0  # bit i = s_(n-i), rebuilt by shifting each step
    for start in range(0, length, _BM_BLOCK):
        bits = seq >> start & _BM_MASK
        for n in range(start, min(start + _BM_BLOCK, length)):
            rev = (rev << 1) | (bits & 1)
            bits >>= 1
            if (c & rev).bit_count() & 1:
                t = c
                c ^= b << (n - m)
                if 2 * lc <= n:
                    lc = n + 1 - lc
                    b = t
                    m = n
    return lc, c


def linear_complexity_periodic(period_bits: Sequence[int]) -> int:
    """Linear complexity of the infinite periodic extension of one period.

    Two concatenated copies suffice: the complexity is at most the period
    and Berlekamp-Massey needs 2*lc bits to settle.
    """
    p = len(period_bits)
    if p == 0:
        raise ValueError("empty period")
    packed = bits_to_int(period_bits)
    return berlekamp_massey_packed(packed | packed << p, 2 * p)[0]


def periodic_lc_packed(z: int, period: int) -> int:
    """Linear complexity of the periodic extension of a packed period.

    Euclid's algorithm on x^N + 1 and z(x); the gcd g leaves lc = N - deg g,
    and 0 for the zero sequence (g = x^N + 1).
    """
    _check_period(z, period)
    return period + 1 - poly_gcd((1 << period) | 1, z).bit_length()


def min_period(bits: Sequence[int]) -> int:
    """Smallest divisor d of len(bits) with the sequence d-periodic.

    Exact whenever the true period divides the length, which holds for all
    filter outputs analyzed here (their periods divide 2^L - 1).
    """
    return min_period_packed(bits_to_int(bits), len(bits))


def min_period_packed(z: int, length: int) -> int:
    """Smallest d dividing length with the packed sequence d-periodic.

    Descends from length over its prime factors: the periods dividing
    length are the multiples of the minimal one, so a period P can drop to
    P/q for a prime q exactly while z is unchanged by rotation by P/q.
    """
    _check_period(z, length)
    mask = (1 << length) - 1
    period = length
    for q in _distinct_primes(length):
        while period % q == 0 and (z << period // q | z >> (length - period // q)) & mask == z:
            period //= q
    return period


@lru_cache(maxsize=64)
def _distinct_primes(n: int) -> tuple[int, ...]:
    return tuple(sorted(set(_prime_factors(n))))


def _check_words(z: np.ndarray, period: int) -> None:
    """The lane check: a 1-D uint64 array, each lane one period of `period` bits."""
    if not 1 <= period <= WORD_MAX_PERIOD:
        raise ValueError(f"word lanes hold periods of 1..{WORD_MAX_PERIOD} bits, got {period}")
    if not (isinstance(z, np.ndarray) and z.dtype == np.uint64 and z.ndim == 1):
        raise ValueError("need a 1-D uint64 array of packed periods")
    if (z >> np.uint64(period)).any():
        raise ValueError(f"need one period of {period} bits in every lane")


def periodic_lc_words(z: np.ndarray, period: int) -> np.ndarray:
    """Linear complexity of each lane's periodic extension, as int64.

    Berlekamp-Massey over two copies of the period in every lane at once,
    branch-free: each step turns the discrepancy into 0/1 and the length
    change into an all-ones/zero mask.  Every value a lane uses fits a word:
    the complexity of any prefix is at most that of the whole sequence
    (<= N <= 63), BM keeps deg c <= lc, and b << (n - m) has degree at most
    the register length after the step that uses it; a shifted b that has
    run past bit 63 is therefore not used before a length change replaces it.

    Per lane: c is the connection polynomial, rev holds s_n, s_(n-1), ...
    from bit 0 up, bs is b already shifted by n - m, and e = 2 lc - n - 1 is
    negative exactly when a discrepancy lengthens the register.
    """
    _check_words(z, period)
    n = z.size
    c = np.ones(n, np.uint64)
    bs = np.full(n, 2, np.uint64)
    rev = np.zeros(n, np.uint64)
    e = np.full(n, -1, np.int64)
    d = np.empty(n, np.uint64)
    g = np.empty(n, np.int64)
    x = np.empty(n, np.uint64)
    y = np.empty(n, np.uint64)
    gu, one = g.view(np.uint64), np.uint64(1)
    for step in range(2 * period):
        np.right_shift(z, np.uint64(step % period), out=x)
        np.bitwise_and(x, one, out=x)
        np.left_shift(rev, one, out=rev)
        np.bitwise_or(rev, x, out=rev)
        np.bitwise_and(c, rev, out=x)
        np.bitwise_count(x, out=d)
        np.bitwise_and(d, one, out=d)           # 1 on a discrepancy, else 0
        np.multiply(bs, d, out=y)               # c ^= b << (n - m) on a discrepancy
        np.right_shift(e, 63, out=g)
        np.multiply(gu, d, out=gu)              # all ones where the register lengthens
        np.bitwise_xor(bs, c, out=x)            # b = old c there
        np.bitwise_and(x, gu, out=x)
        np.bitwise_xor(bs, x, out=bs)
        np.left_shift(bs, one, out=bs)
        np.bitwise_xor(c, y, out=c)
        np.bitwise_xor(e, g, out=e)             # lc -> n + 1 - lc negates e ...
        np.subtract(e, g, out=e)
        np.subtract(e, 1, out=e)                # ... and each step lowers it by one
    return (e + 2 * period + 1) >> 1


def min_period_words(z: np.ndarray, period: int) -> np.ndarray:
    """Each lane's smallest period dividing `period`, as int64.

    The descent of min_period_packed in every lane at once: for each prime
    q of `period`, once per time it divides `period` (so q still divides the
    lane's current period P), P drops to P/q when the lane is unchanged by
    rotation by P/q.
    """
    _check_words(z, period)
    out = np.full(z.size, period, np.uint64)
    mask, width = np.uint64((1 << period) - 1), np.uint64(period)
    for q in _prime_factors(period):
        r = out // np.uint64(q)
        rotated = ((z << r) | (z >> (width - r))) & mask
        out = np.where(rotated == z, r, out)
    return out.astype(np.int64)
