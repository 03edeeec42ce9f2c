"""Linear complexity and exact minimal period measurement.

The periodic measurements use no filter theory, and each is one algorithm
in two forms: a scalar kernel on a packed int, and a word kernel that runs
the same steps on a numpy uint64 lane per sequence, for the census blocks
of periods of at most WORD_MAX_PERIOD bits.

- Linear complexity is N - deg gcd(x^N - 1, z(x)), where z(x) is the sum
  of z_n x^n over one period of N bits (Ding, Xiao & Shan, The Stability
  Theory of Stream Ciphers, 1991): the generating function of the periodic
  sequence is z(x) / (1 - x^N), and in lowest terms its denominator
  (x^N - 1) / gcd is the minimal connection polynomial.
  periodic_lc_packed takes the gcd by Euclid's algorithm (field.poly_gcd),
  periodic_lc_words by Stein's binary gcd, which needs only shifts, xors
  and compares.
- The minimal period descends from the length over its prime factors,
  dividing by p while the period is invariant under rotation by P/p: one
  rotation test per prime factor, counted with multiplicity, instead of one
  per divisor (min_period_packed, min_period_words).

Berlekamp-Massey is for finite strings (the lc subcommand), with the
connection polynomial kept as an int bitmask (bit i = coefficient of x^i,
constant term always set), which makes the discrepancy a single masked
popcount per step.  The connection polynomial's degree can fall below the
register length when the oldest tap of the minimal LFSR is zero (e.g. a
prefix of leading zeros); lc is the register length, and the missing high
taps are zero coefficients.  linear_complexity_periodic runs it over two
copies of a period, as the reference the gcd kernels are tested against;
the two share no code.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .field import _check_period, _prime_factors, poly_gcd

# Longest period a word lane holds: the gcd starts from x^N + 1, N + 1 bits.
WORD_MAX_PERIOD = 63
_POWERS = np.uint64(1) << np.arange(64, dtype=np.uint64)  # exact bit lengths, unlike log2


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

    Descends from length over its prime factors q, with multiplicity: the
    periods dividing length are the multiples of the minimal one, so the
    period P drops to P/q exactly when z is unchanged by rotation by P/q.
    """
    _check_period(z, length)
    mask = (1 << length) - 1
    period = length
    for q in _prime_factors(length):
        r = period // q
        if (z << r | z >> (length - r)) & mask == z:
            period = r
    return period


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

    The gcd of periodic_lc_packed by Stein's binary algorithm, in every lane
    at once and branch-free.  a starts at x^N + 1 and b at z; a step swaps
    them if b is odd and below a, xors a into an odd b, and halves b.  a
    stays odd, so halving b keeps the gcd.  A step with b != 0 lowers
    deg a + deg b, at most 2N - 1 at the start, by at least one, so 2N steps
    leave b = 0 and a = gcd.  No value exceeds x^N + 1 < 2^64.
    """
    _check_words(z, period)
    a = np.full(z.size, (1 << period) | 1, np.uint64)
    b = z.copy()
    odd, swap, t = (np.empty(z.size, np.uint64) for _ in range(3))
    one = np.uint64(1)
    for _ in range(2 * period):
        np.bitwise_and(b, one, out=odd)
        np.less(b, a, out=swap)
        np.bitwise_and(swap, odd, out=swap)
        np.negative(swap, out=swap)             # all ones where b is odd and below a
        np.bitwise_xor(a, b, out=t)
        np.bitwise_and(t, swap, out=t)
        np.bitwise_xor(a, t, out=a)
        np.bitwise_xor(b, t, out=b)
        np.negative(odd, out=odd)               # all ones where b is odd
        np.bitwise_and(a, odd, out=t)
        np.bitwise_xor(b, t, out=b)
        np.right_shift(b, one, out=b)
    return period + 1 - np.searchsorted(_POWERS, a, side="right")


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
