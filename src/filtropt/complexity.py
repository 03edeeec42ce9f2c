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

linear_complexity_periodic keeps full 2p-bit Berlekamp-Massey as the
reference the gcd kernel is tested against; the two share no code.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .field import _prime_factors, poly_gcd


def bits_to_int(bits: Sequence[int]) -> int:
    """Pack s_0, s_1, ... with s_n at bit n."""
    return sum((b & 1) << n for n, b in enumerate(bits))


_BM_BLOCK = 256  # bits fed to each _bm_feed call, so no step shifts the whole input
_BM_MASK = (1 << _BM_BLOCK) - 1
_BM_START = (1, 1, 0, -1, 0)  # (c, b, lc, m, rev) before any bit


def _bm_feed(state: tuple[int, int, int, int, int], bits: int, start: int,
             stop: int) -> tuple[int, int, int, int, int]:
    """Berlekamp-Massey over s_start .. s_(stop-1), with s_start at bit 0 of bits."""
    c, b, lc, m, rev = state  # rev: bit i = s_(n-i), rebuilt by shifting each step
    for n in range(start, stop):
        rev = (rev << 1) | (bits & 1)
        bits >>= 1
        if (c & rev).bit_count() & 1:
            t = c
            c ^= b << (n - m)
            if 2 * lc <= n:
                lc = n + 1 - lc
                b = t
                m = n
    return c, b, lc, m, rev


def berlekamp_massey_packed(seq: int, length: int) -> tuple[int, int]:
    """Berlekamp-Massey on a packed bit sequence; returns (lc, connection poly)."""
    state = _BM_START
    for n in range(0, length, _BM_BLOCK):
        state = _bm_feed(state, seq >> n & _BM_MASK, n, min(n + _BM_BLOCK, length))
    return state[2], state[0]


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


def _check_period(z: int, period: int) -> None:
    if period < 1:
        raise ValueError(f"period must be at least 1, got {period}")
    if z < 0 or z >> period:
        raise ValueError(f"need one period of {period} bits packed into an int")


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
