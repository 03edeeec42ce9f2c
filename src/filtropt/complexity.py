"""Linear complexity and exact minimal period measurement.

Berlekamp-Massey runs over GF(2) with the connection polynomial kept as an
int bitmask (bit i = coefficient of x^i, constant term always set), which
makes the discrepancy a single masked popcount per step.  The connection
polynomial's degree can fall below the register length when the oldest tap
of the minimal LFSR is zero (e.g. a prefix of leading zeros); lc is the
register length, the recurrence check below treats missing high taps as
zero coefficients.

The periodic measurements stop as soon as the answer is certified, with no
appeal to the filter theory they are compared against:

- periodic_lc_packed feeds the doubled period to Berlekamp-Massey in blocks
  and returns once the current connection polynomial annihilates the whole
  cyclic period (the xor of the period rotated by each of its taps is
  zero).  Any LFSR of the infinite sequence also generates the prefix, so
  lc is at least the prefix lc; one that regenerates the period bounds it
  from above.  Massey (1969): the prefix settles after 2*lc bits, so on
  low-complexity outputs most of the 2N bits are never read.
- min_period_packed descends from the length over its prime factors,
  dividing by p while the period is invariant under rotation by P/p: one
  rotation test per prime factor removed, plus one per distinct prime,
  instead of one per divisor.

linear_complexity_periodic keeps full 2p-bit Berlekamp-Massey as the
reference the certified kernel is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .field import _prime_factors


@dataclass(frozen=True)
class ComplexityResult:
    """Shortest-LFSR answer: register length and connection polynomial."""

    lc: int
    minimal_poly: int


def bits_to_int(bits: Sequence[int]) -> int:
    """Pack s_0, s_1, ... with s_n at bit n."""
    return sum((b & 1) << n for n, b in enumerate(bits))


_BM_BLOCK = 256  # bits fed to Berlekamp-Massey between certificate checks
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


def berlekamp_massey(bits: Sequence[int]) -> ComplexityResult:
    """Shortest LFSR generating the sequence; lc 0 for an empty or zero input."""
    lc, poly = berlekamp_massey_packed(bits_to_int(bits), len(bits))
    return ComplexityResult(lc, poly)


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

    The certificate (module docstring) is tried after each block that left
    the connection polynomial c unchanged with n >= 2*lc bits read; a c
    that fails it is not tried again.
    """
    _check_period(z, period)
    doubled = z | z << period
    total = 2 * period
    if total <= _BM_BLOCK:
        return _bm_feed(_BM_START, doubled, 0, total)[2]
    state = _BM_START
    tested = 0  # no connection polynomial is 0
    for n in range(0, total, _BM_BLOCK):
        stop = min(n + _BM_BLOCK, total)
        before = state[0]
        state = _bm_feed(state, doubled >> n & _BM_MASK, n, stop)
        c, lc = state[0], state[2]
        if stop < total and c == before and c != tested and stop >= 2 * lc:
            if _annihilates(doubled, period, c):
                return lc
            tested = c
    return state[2]


def _annihilates(doubled: int, period: int, c: int) -> bool:
    """Whether c's recurrence holds at every position of the cyclic period.

    doubled >> (period - i) holds z rotated by i in its low period bits.
    """
    acc = 0
    for i in range(c.bit_length()):
        if c >> i & 1:
            acc ^= doubled >> (period - i)
    return not acc & ((1 << period) - 1)


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


def regenerates(bits: Sequence[int], result: ComplexityResult) -> bool:
    """Whether result's LFSR, seeded with the first lc bits, replays the input."""
    lc, poly = result.lc, result.minimal_poly
    if lc == 0:
        return not any(bits)
    for n in range(lc, len(bits)):
        acc = 0
        for i in range(1, lc + 1):
            acc ^= (poly >> i & 1) & bits[n - i]
        if acc != bits[n]:
            return False
    return True
