"""Arithmetic in GF(2^L) over a verified primitive modulus.

Field elements are plain ints carrying the polynomial-basis coefficient
bitmask (bit i = coefficient of x^i), so 0 and 1 are the additive and
multiplicative identities and addition is xor.  A ``FieldContext`` pins the
extension degree L and the primitive modulus; all operations live on the
context and validate that their operands are reduced L-bit values.

The raw ``poly_*`` helpers work on bare bitmasks and are usable before any
context exists; ``is_primitive`` builds on them to vet a candidate modulus
against a known factorization of 2^L - 1.
"""
from __future__ import annotations

from functools import cached_property
from typing import Sequence

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
    """Immutable GF(2^L) environment over a verified primitive modulus.

    Safe to share across threads/processes: construction verifies the
    modulus once and every operation afterwards is a pure function.
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

    @property
    def alpha(self) -> FieldElement:
        """The residue class of x, a generator of the multiplicative group."""
        return 2

    def check(self, a: FieldElement) -> FieldElement:
        """Validate that a is a reduced element of this field."""
        if not isinstance(a, int) or a < 0 or a >> self.L:
            raise ValueError(f"{a!r} is not a reduced element of GF(2^{self.L})")
        return a

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        """Characteristic-2 addition: coefficientwise xor."""
        return self.check(a) ^ self.check(b)

    def mul_alpha(self, a: FieldElement) -> FieldElement:
        """Multiply by alpha in O(1)."""
        a <<= 1
        if a >> self.L:
            a ^= self.modulus
        return a

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        """Polynomial product reduced modulo the field modulus."""
        self.check(a)
        self.check(b)
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a = self.mul_alpha(a)
        return r

    def pow(self, a: FieldElement, e: int) -> FieldElement:
        """Square-and-multiply power; exponents reduce mod 2^L - 1 for a != 0."""
        self.check(a)
        if a == 0:
            if e < 0:
                raise ValueError("zero has no inverse")
            return 1 if e == 0 else 0
        e %= self.order
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: FieldElement) -> FieldElement:
        return self.pow(a, -1)

    def frobenius(self, a: FieldElement) -> FieldElement:
        return self.mul(a, a)

    def trace_sum(self, a: FieldElement) -> FieldElement:
        """Absolute trace by its definition: a + a^2 + ... + a^(2^(L-1))."""
        self.check(a)
        t = a
        v = a
        for _ in range(self.L - 1):
            v = self.mul(v, v)
            t ^= v
        return t

    @cached_property
    def trace_mask(self) -> int:
        """Bitmask m with trace(a) = parity(a & m), from trace linearity."""
        mask = 0
        for i in range(self.L):
            t = self.trace_sum(1 << i)
            if t not in (0, 1):
                raise AssertionError("trace of basis element outside GF(2)")
            mask |= t << i
        return mask

    def trace(self, a: FieldElement) -> int:
        """Absolute trace GF(2^L) -> GF(2)."""
        return (self.check(a) & self.trace_mask).bit_count() & 1

    @cached_property
    def _exp_log_tables(self) -> tuple[list[int], list[int]]:
        # exp[n] = alpha^n for n in [0, order); log[v] for nonzero v
        if self.L > 20:
            raise ValueError(f"discrete log tables capped at L <= 20, got L={self.L}")
        exp = [0] * self.order
        log = [0] * (1 << self.L)
        v = 1
        for n in range(self.order):
            exp[n] = v
            log[v] = n
            v = self.mul_alpha(v)
        if v != 1:
            raise AssertionError("alpha does not have full order")
        return exp, log

    @property
    def exp_table(self) -> list[int]:
        """alpha^n for n in [0, 2^L - 2]; desk-scale fields only."""
        return self._exp_log_tables[0]

    @property
    def log_table(self) -> list[int]:
        """Discrete log base alpha, defined for nonzero elements."""
        return self._exp_log_tables[1]
