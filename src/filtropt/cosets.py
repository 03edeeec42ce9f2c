"""Cyclotomic cosets of 2 modulo 2^L - 1.

Doubling mod 2^L - 1 rotates the L-bit representation of an exponent, so a
coset is a necklace of L-bit strings: every member shares the leader's
binary weight, and the orbit size divides L.  The weight-w cosets jointly
cover all C(L, w) exponents of weight w; summed over w <= k this gives the
ceiling nk(L, k) on the linear complexity of an order-k filter output.

The special exponent 2^L - 1 (== 0 mod 2^L - 1, the all-ones string) forms
its own orbit of size 1 and weight L.  It carries the constant component of
a sequence and enters enumerations only when k = L, since no filter of
order k < L can reach weight L.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .field import _prime_factors
from .limits import ENUMERATION_MAX_L, check_order, check_report


@dataclass(frozen=True)
class CyclotomicCoset:
    """A doubling orbit mod 2^L - 1: its minimum element, size and binary weight."""

    leader: int
    cardinal: int
    weight: int


def _orbit(e: int, n: int) -> list[int]:
    """The doubling orbit of e mod n, starting at e."""
    orbit, x = [e], e * 2 % n
    while x != e:
        orbit.append(x)
        x = x * 2 % n
    return orbit


def constant_coset(L: int) -> CyclotomicCoset:
    """The weight-L singleton orbit of 2^L - 1 (exponent 0 mod 2^L - 1)."""
    return CyclotomicCoset((1 << L) - 1, 1, L)


@lru_cache(maxsize=32)
def _all_cosets(L: int) -> tuple[CyclotomicCoset, ...]:
    if L > ENUMERATION_MAX_L:
        raise ValueError(
            f"coset enumeration capped at L <= {ENUMERATION_MAX_L} "
            f"(use prob, or cardinal_counts, for large L)")
    n = (1 << L) - 1
    seen = bytearray(n)
    out = []
    for e in range(1, n):
        if seen[e]:
            continue
        orbit = _orbit(e, n)  # e, the first exponent not yet seen, is the leader
        for x in orbit:
            seen[x] = 1
        out.append(CyclotomicCoset(e, len(orbit), e.bit_count()))
    return tuple(out)


def cosets_up_to_weight(L: int, k: int) -> list[CyclotomicCoset]:
    """All cosets with leader weight in [1, k], sorted by leader.

    Includes the weight-L constant coset exactly when k = L.
    """
    check_order(L, k)
    out = [c for c in _all_cosets(L) if c.weight <= k]
    if k == L:
        out.append(constant_coset(L))
    return out


def _binomial_sum(n: int, top: int) -> int:
    """C(n,1) + ... + C(n,top), each binomial from the one before it."""
    total, c = 0, 1
    for i in range(1, top + 1):
        c = c * (n - i + 1) // i
        total += c
    return total


def nk(L: int, k: int) -> int:
    """C(L,1) + ... + C(L,k): the maximum linear complexity at order k."""
    check_report(L, k)
    return _binomial_sum(L, k)


def coset_period(c: CyclotomicCoset, L: int) -> int:
    """Period of the coset's characteristic sequence: (2^L - 1)/gcd(leader, 2^L - 1)."""
    n = (1 << L) - 1
    return n // gcd(c.leader, n)


def _divisors(n: int) -> list[int]:
    primes = _prime_factors(n)
    divs = [1]
    for p in set(primes):
        divs = [d * p ** e for d in divs for e in range(primes.count(p) + 1)]
    return sorted(divs)


def cardinal_counts(L: int, k: int) -> dict[int, int]:
    """Number of weight-<=k cosets per cardinal, without enumerating them.

    An exponent has orbit size dividing d iff its L-bit string is L/d
    repetitions of a d-bit block, so the fixed counts are block-weight
    binomials.  Going up the divisors of L, the exponents of orbit size
    exactly d are the fixed count at d less those of each smaller orbit
    size dividing d.  A count that is not a multiple of d, or cardinals
    that miss the fixed count at d = L (all nk(L, k) exponents), raise
    AssertionError.  Works for any L, including ones where 2^L - 1 is far
    beyond enumeration range.
    """
    check_report(L, k)
    divs = _divisors(L)
    fixed = {d: _binomial_sum(d, min(d, k // (L // d))) for d in divs}

    exact: dict[int, int] = {}  # d: exponents of orbit size d
    for d in divs:  # ascending, so the divisors of d are already in exact
        exact[d] = fixed[d] - sum(g for e, g in exact.items() if d % e == 0)
        if exact[d] % d:
            raise AssertionError(f"orbit count {exact[d]} not divisible by size {d}")
    counts = {d: g // d for d, g in exact.items() if g}
    if sum(d * c for d, c in counts.items()) != fixed[L]:
        raise AssertionError("coset cardinals do not cover the binomial sum")
    return counts
