"""GF(2^L) as a verified primitive modulus plus its exp/log tables.

Field elements are plain ints carrying the polynomial-basis coefficient
bitmask (bit i = coefficient of x^i), so 0 and 1 are the additive and
multiplicative identities and addition is xor.  A ``FieldContext`` is a
primitive modulus of degree L, verified once, and its tables:
``exp_table[n]`` is alpha^n, ``log_table`` inverts it on the nonzero
elements, and ``trace_mask`` turns the absolute trace into a masked parity,
so a product is a sum of logs and a trace is one popcount.

The raw ``poly_*`` helpers work on bare bitmasks and are usable before any
context exists; ``is_primitive`` builds on them to vet a candidate modulus
against a known factorization of 2^L - 1.
"""
from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

FieldElement = int

# Deterministic Miller-Rabin below this bound with the first 12 prime bases.
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
             61, 67, 71, 73, 79, 83, 89)


def poly_degree(p: int) -> int:
    """Degree of a GF(2) polynomial bitmask (-1 for the zero polynomial)."""
    return p.bit_length() - 1


def poly_mulmod(a: int, b: int, mod: int) -> int:
    """Carryless product of a and b reduced modulo mod."""
    deg = poly_degree(mod)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> deg:
            a ^= mod
    return r


def poly_powmod(a: int, e: int, mod: int) -> int:
    """a^e modulo mod by square-and-multiply (e >= 0)."""
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    r = 1
    while e:
        if e & 1:
            r = poly_mulmod(r, a, mod)
        a = poly_mulmod(a, a, mod)
        e >>= 1
    return r


def poly_gcd(a: int, b: int) -> int:
    """GCD of two GF(2) polynomial bitmasks by Euclid's algorithm.

    Each remainder step clears a's top bit with a shifted copy of b until a
    falls below b's degree; bit_length stands in for the degree throughout.
    """
    while b:
        blen = b.bit_length()
        while (shift := a.bit_length() - blen) >= 0:
            a ^= b << shift
        a, b = b, a
    return a


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality check.

    Deterministic for n below ~3.3e24; for larger n the fixed 24 bases make a
    false positive astronomically unlikely.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES[:12] if n < _MR_DETERMINISTIC_BOUND else _MR_BASES
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _check_period(z: int, period: int) -> None:
    """The one packed-period check: z holds one period of `period` bits."""
    if period < 1:
        raise ValueError(f"period must be at least 1, got {period}")
    if z < 0 or z >> period:
        raise ValueError(f"need one period of {period} bits packed into an int")


def is_irreducible(poly: int, L: int) -> bool:
    """True iff the degree-L bitmask poly is irreducible over GF(2)."""
    if poly_degree(poly) != L:
        raise ValueError(f"polynomial degree {poly_degree(poly)} != {L}")
    x = 2
    t = x
    for _ in range(L):
        t = poly_mulmod(t, t, poly)
    if t != x:
        return False
    for q in set(_prime_factors(L)):
        t = x
        for _ in range(L // q):
            t = poly_mulmod(t, t, poly)
        if poly_gcd(t ^ x, poly) != 1:
            return False
    return True


def is_primitive(L: int, poly: int, factorization: Sequence[int]) -> bool:
    """Check that poly is a degree-L primitive polynomial over GF(2).

    factorization must list the prime factors of 2^L - 1 with multiplicity;
    a wrong product, a composite entry, or a degree mismatch raises rather
    than returning a silent False, because a bad factorization would make
    the order test meaningless.
    """
    if L < 2:
        raise ValueError("extension degree must be at least 2")
    if poly_degree(poly) != L:
        raise ValueError(f"polynomial 0x{poly:x} does not have degree {L}")
    order = (1 << L) - 1
    factors = list(factorization)
    if not factors:
        raise ValueError("factorization of 2^L - 1 is required")
    prod = 1
    for p in factors:
        prod *= p
    if prod != order:
        raise ValueError(f"factorization product {prod} != 2^{L} - 1")
    for p in set(factors):
        if not is_probable_prime(p):
            raise ValueError(f"factorization entry {p} is not prime")
    if not poly & 1:
        return False  # divisible by x
    if not is_irreducible(poly, L):
        return False
    for p in set(factors):
        if poly_powmod(2, order // p, poly) == 1:
            return False
    return True


class FieldContext:
    """A verified primitive modulus of degree L and its exp/log tables.

    Safe to share across threads/processes: construction verifies the
    modulus once and the tables, built on first use, are read-only.
    """

    def __init__(self, L: int, modulus: int, factorization: Sequence[int]):
        if not is_primitive(L, modulus, factorization):
            raise ValueError(
                f"0x{modulus:x} is not primitive of degree {L}; refusing to build field")
        self.L = L
        self.modulus = modulus
        self.order = (1 << L) - 1
        self.factorization = tuple(factorization)

    def __repr__(self) -> str:
        return f"FieldContext(L={self.L}, modulus=0x{self.modulus:x})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldContext)
                and (self.L, self.modulus) == (other.L, other.modulus))

    def __hash__(self) -> int:
        return hash((self.L, self.modulus))

    @cached_property
    def exp_table(self) -> np.ndarray:
        """alpha^n for n in [0, 2^L - 2], read-only; desk-scale fields only."""
        if self.L > 20:
            raise ValueError(f"discrete log tables capped at L <= 20, got L={self.L}")
        powers = []
        v = 1
        for _ in range(self.order):  # the Galois step v -> alpha * v
            powers.append(v)
            v <<= 1
            if v >> self.L:
                v ^= self.modulus
        if v != 1:
            raise AssertionError("alpha does not have full order")
        exp = np.array(powers, dtype=np.int64)
        exp.flags.writeable = False
        return exp

    @cached_property
    def log_table(self) -> np.ndarray:
        """Discrete log base alpha of nonzero elements, read-only (log_table[0] is 0)."""
        log = np.zeros(1 << self.L, dtype=np.int64)
        log[self.exp_table] = np.arange(self.order, dtype=np.int64)
        log.flags.writeable = False
        return log

    @cached_property
    def trace_mask(self) -> int:
        """Bitmask m with Tr(a) = parity(a & m).

        Bit i is Tr(alpha^i), the xor of alpha^(i 2^j) over j < L.
        """
        exp = self.exp_table
        mask = 0
        for i in range(self.L):
            t = 0
            for j in range(self.L):
                t ^= int(exp[(i << j) % self.order])
            if t not in (0, 1):
                raise AssertionError("trace of basis element outside GF(2)")
            mask |= t << i
        return mask
