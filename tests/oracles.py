"""Independent reference implementations the tests judge the package against.

Nothing here may share code paths with the package: the LFSR search is a
literal scan over every candidate tap mask, Berlekamp-Massey, the register
recurrence and the LFSR replay run on plain bit lists, the trace and
spectral references work on coefficient lists rather than bitmasks, and
primitivity is the order of x computed by square-and-multiply against a
trial-division factorization of 2^L - 1, where the package steps the powers
of x until they return to 1, ln(1 - 2^-d) is a log or a summed power
series, where the package calls mpmath's log1p, canonical ANF text
sorts tap tuples, where the package sorts one integer key per monomial,
a cyclotomic coset is the set of rotations of an L-bit string, where
the package doubles exponents mod 2^L - 1, and the coset count per
cardinal is Moebius inversion over trial-division divisors, where the
package subtracts the counts of smaller orbit sizes.
"""
from __future__ import annotations

from math import comb, isqrt

import numpy as np
from mpmath import mp, mpf


def brute_force_lfsr_length(bits: list[int]) -> int:
    """Smallest c such that some c-tap recurrence reproduces bits.

    Scans every tap mask of every length, smallest first; numpy only
    batches the scan, every candidate is still examined.
    """
    if not any(bits):
        return 0
    for c in range(1, len(bits) + 1):
        if _exists_lfsr(bits, c):
            return c
    raise AssertionError("a register as long as the sequence always works")


def _exists_lfsr(bits: list[int], c: int) -> bool:
    n = len(bits)
    pairs = []
    for i in range(c, n):
        w = 0
        for j in range(c):
            w |= bits[i - 1 - j] << j
        pairs.append((np.uint64(w), np.uint64(bits[i])))
    if not pairs:
        return True
    chunk = 1 << 20
    for lo in range(0, 1 << c, chunk):
        cand = np.arange(lo, min(lo + chunk, 1 << c), dtype=np.uint64)
        for w, target in pairs:
            par = np.bitwise_count(cand & w).astype(np.uint64) & np.uint64(1)
            cand = cand[par == target]
            if cand.size == 0:
                break
        if cand.size:
            return True
    return False


def poly_list_mulmod(a: list[int], b: list[int], mod: list[int]) -> list[int]:
    """Schoolbook GF(2)[x] multiply-and-reduce on coefficient lists."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] ^= ai & bj
    deg_m = len(mod) - 1
    while len(prod) - 1 >= deg_m and any(prod):
        while prod and prod[-1] == 0:
            prod.pop()
        if len(prod) - 1 < deg_m:
            break
        shift = len(prod) - 1 - deg_m
        for j, mj in enumerate(mod):
            prod[shift + j] ^= mj
    prod += [0] * (deg_m - len(prod))
    return prod[:deg_m]


def mulmod(a: int, b: int, mod: int) -> int:
    """Shift-and-add product of two GF(2)[x] bitmasks, reduced modulo mod."""
    deg = mod.bit_length() - 1
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> deg:
            a ^= mod
    return r


def powmod(a: int, e: int, mod: int) -> int:
    """a^e modulo mod by square-and-multiply, for e >= 0."""
    r = 1
    while e:
        if e & 1:
            r = mulmod(r, a, mod)
        a = mulmod(a, a, mod)
        e >>= 1
    return r


def x_has_full_order(poly: int, L: int) -> bool:
    """Whether x has multiplicative order 2^L - 1 modulo the degree-L poly.

    That is the definition of a primitive polynomial: x^(2^L - 1) = 1 and
    x^((2^L - 1)/p) != 1 for every prime p dividing 2^L - 1.  A poly
    divisible by x has no x^-1, so it fails the first test.  Candidates
    with x^(2^L) != x, which are most of them, are refused after L squarings.
    """
    order = (1 << L) - 1
    x = 0b10
    t = x
    for _ in range(L):
        t = mulmod(t, t, poly)
    if t != x or powmod(x, order, poly) != 1:
        return False
    primes, n, d = set(), order, 2
    while d * d <= n:
        while n % d == 0:
            primes.add(d)
            n //= d
        d += 1
    if n > 1:
        primes.add(n)
    return all(powmod(x, order // p, poly) != 1 for p in primes)


def trace_reference(a_bits: list[int], mod: list[int], L: int) -> int:
    """Absolute trace of an element given as a coefficient list."""
    acc = list(a_bits) + [0] * (L - len(a_bits))
    v = list(acc)
    for _ in range(L - 1):
        v = poly_list_mulmod(v, v, mod)
        v += [0] * (L - len(v))
        for i in range(L):
            acc[i] ^= v[i]
    assert acc[1:] == [0] * (L - 1), "trace landed outside GF(2)"
    return acc[0]


def trace_sequence_reference(modulus: int, L: int) -> list[int]:
    """Tr(x^n) modulo the degree-L modulus for n over one period of 2^L - 1.

    x^n is stepped on coefficient lists, and the trace being linear, each
    Tr(x^n) is the parity of x^n's coefficients against the traces of the
    basis 1, x, ..., x^(L-1), each taken by trace_reference.
    """
    mod = [modulus >> i & 1 for i in range(L + 1)]
    basis = [trace_reference([0] * i + [1], mod, L) for i in range(L)]
    v = [1] + [0] * (L - 1)
    out = []
    for _ in range((1 << L) - 1):
        out.append(sum(b & c for b, c in zip(basis, v)) % 2)
        v = [0] + v
        if v.pop():  # x^L = the modulus's low coefficients
            v = [a ^ m for a, m in zip(v, mod)]
    return out


def reciprocal(poly: int, degree: int) -> int:
    """Bit-reverse a degree-`degree` polynomial: x^degree * p(1/x)."""
    out = 0
    for i in range(degree + 1):
        if poly >> i & 1:
            out |= 1 << (degree - i)
    return out


def coset_reference(e: int, L: int) -> tuple[int, int, int]:
    """(leader, cardinal, weight) of the coset of e: its L-bit rotations, their
    minimum, their count and the popcount they share."""
    n = (1 << L) - 1
    assert 1 <= e < n, f"exponent {e} outside [1, {n - 1}]"
    orbit = {(e << i | e >> (L - i)) & n for i in range(L)}
    return min(orbit), len(orbit), bin(e).count("1")


def _divisor_list(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def _moebius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def cardinal_counts_reference(L: int, k: int) -> dict[int, int]:
    """{cardinal d: weight-<=k coset count} by Moebius inversion.

    An exponent is fixed by d doublings iff its L-bit string repeats a
    d-bit block L/d times, so fixed(d) counts the nonzero blocks of weight
    b with b * L/d <= k, and the exponents of orbit size exactly d are
    sum over e | d of mu(d/e) * fixed(e).
    """
    divisors = _divisor_list(L)
    fixed = {d: sum(comb(d, b) for b in range(1, d + 1) if b * (L // d) <= k)
             for d in divisors}
    counts = {}
    for d in divisors:
        exact = sum(_moebius(d // e) * fixed[e] for e in _divisor_list(d))
        if exact:
            counts[d] = exact // d
    return counts


def naive_min_period(bits: list[int]) -> int:
    """Smallest divisor d of the length with bits[i] == bits[i % d] everywhere."""
    n = len(bits)
    for d in range(1, n + 1):
        if n % d == 0 and all(bits[i] == bits[i % d] for i in range(n)):
            return d
    raise AssertionError("n divides n")


def berlekamp_massey_reference(bits: list[int]) -> tuple[int, int]:
    """Textbook Berlekamp-Massey on lists; returns (lc, connection poly bitmask)."""
    n = len(bits)
    c = [1] + [0] * n
    b = [1] + [0] * n
    lc, m = 0, -1
    for i in range(n):
        d = bits[i]
        for j in range(1, lc + 1):
            d ^= c[j] & bits[i - j]
        if d:
            t = list(c)
            for j in range(n + 1 - (i - m)):
                c[j + i - m] ^= b[j]
            if 2 * lc <= i:
                lc, b, m = i + 1 - lc, t, i
    return lc, sum(bit << j for j, bit in enumerate(c))


def lfsr_replays(bits: list[int], lc: int, poly: int) -> bool:
    """Whether the LFSR (lc, poly), seeded with the first lc bits, replays bits."""
    if lc == 0:
        return not any(bits)
    taps = [poly >> i & 1 for i in range(1, lc + 1)]
    return all(sum(t & bits[n - i] for i, t in enumerate(taps, 1)) % 2 == bits[n]
               for n in range(lc, len(bits)))


def m_sequence_reference(modulus: int, L: int, state: int, length: int) -> list[int]:
    """a_0.. from a_(n+L) = sum c_i a_(n+i), c_i the modulus coefficients below x^L."""
    coeffs = [modulus >> i & 1 for i in range(L)]
    a = [state >> i & 1 for i in range(L)]
    while len(a) < length:
        n = len(a) - L
        a.append(sum(c & a[n + i] for i, c in enumerate(coeffs)) % 2)
    return a[:length]


def _list_powmod(base: list[int], e: int, mod: list[int]) -> list[int]:
    result = [1] + [0] * (len(mod) - 2)
    while e:
        if e & 1:
            result = poly_list_mulmod(result, base, mod)
        base = poly_list_mulmod(base, base, mod)
        e >>= 1
    return result


def reconstruct_reference(spectrum, n: int) -> int:
    """Bit z_n of a spectrum by the conjugate sums, on coefficient lists.

    Each line adds x + x^2 + ... + x^(2^(r-1)) for x = C * alpha^(leader * n)
    and r the coset cardinal; the sum must land in GF(2).
    """
    ctx = spectrum.ctx
    L = ctx.L
    mod = [ctx.modulus >> i & 1 for i in range(L + 1)]
    out = 0
    for line in spectrum.lines.values():
        coeff = [line.coefficient >> i & 1 for i in range(L)]
        x = poly_list_mulmod(coeff, _list_powmod([0, 1], line.coset.leader * n % ctx.order, mod),
                             mod)
        total = list(x)
        for _ in range(line.coset.cardinal - 1):
            x = poly_list_mulmod(x, x, mod)
            total = [p ^ q for p, q in zip(total, x)]
        assert not any(total[1:]), "conjugate sum landed outside GF(2)"
        out ^= total[0]
    return out


def ln_one_minus_pow2_series(d: int) -> mpf:
    """ln(1 - 2^-d) at mpmath's working precision, in two branches.

    While d <= prec - 2, 1 - 2^-d is held exactly and its log is taken;
    past that, the series -(2^-d + 2^-2d / 2 + ...) is summed while its
    terms reach the precision, and always for at least its first term.
    """
    if d <= mp.prec - 2:
        return mp.log(1 - mp.ldexp(1, -d))
    total = mpf(0)
    j = 1
    while j * d <= mp.prec + 10 or j == 1:
        total -= mp.ldexp(1, -j * d) / j
        j += 1
    return total


def sorted_tap_lists(masks) -> list[list[int]]:
    """Tap lists of monomial bitmasks: taps ascending, monomials by (size, taps)."""
    monos = [tuple(t for t in range(m.bit_length()) if m >> t & 1) for m in masks]
    return [list(m) for m in sorted(monos, key=lambda m: (len(m), m))]


def format_anf_reference(masks) -> str:
    """Canonical ANF text of monomial bitmasks, by sorting their tap tuples."""
    return " + ".join("*".join(f"x{t}" for t in taps) for taps in sorted_tap_lists(masks))
