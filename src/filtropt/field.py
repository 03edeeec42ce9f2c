"""GF(2^L) as a primitive modulus verified by alpha's powers, plus its tables.

Field elements are plain ints carrying the polynomial-basis coefficient
bitmask (bit i = coefficient of x^i), so 0 and 1 are the additive and
multiplicative identities and addition is xor.  A ``FieldContext`` is a
primitive modulus of degree L and its tables: ``exp_table[n]`` is alpha^n,
``log_table`` inverts it on the nonzero elements, so a product is a sum of
logs.

Primitivity is checked by the powers themselves: the modulus is primitive
exactly when alpha = x has order 2^L - 1, and the constructor steps
v -> alpha * v (a Galois register) from 1 until v returns, keeping every
power as the exp table.  Any nonzero linear form of alpha^n is an
m-sequence of the modulus (Lidl & Niederreiter, Finite Fields, 1997,
Thm 8.24); the constructor takes bit 0, so the window table is read off
the powers too (see lfsr.window_table).  Before any step the constructor
checks the one cap on sequence work, 2 <= L <= DESK_MAX_L.

PRIMITIVE holds the default modulus for every length up to that cap, and
its largest key is the cap.  Entry L is the first primitive polynomial among
the trinomials x^L + x^a + 1 by ascending a, then the pentanomials
x^L + x^c + x^b + x^a + 1 by ascending (a, b, c) with a < b < c; a test
repeats that search.  Raising the cap means adding entries.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

PRIMITIVE = {
    2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x187, 9: 0x211,
    10: 0x409, 11: 0x805, 12: 0x1107, 13: 0x2027, 14: 0x5007, 15: 0x8003, 16: 0x1100B,
}
DESK_MAX_L = max(PRIMITIVE)


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


class FieldContext:
    """A primitive modulus of degree L and the tables read off alpha's powers.

    Construction refuses the modulus unless v -> alpha * v, from 1, first
    returns to 1 after exactly 2^L - 1 steps.  exp_table holds those powers,
    and the window table comes from them.  Safe to share across
    threads/processes: every table is read-only, and a pickled context is
    rebuilt (and re-verified) by polytable.context_for on arrival, once per
    process, rather than shipped as writeable copies.
    """

    def __init__(self, L: int, modulus: int):
        if not 2 <= L <= DESK_MAX_L:  # the one cap on sequence work
            raise ValueError(f"sequence work is capped at 2 <= L <= {DESK_MAX_L}, got L={L} "
                             f"(analytic reports remain available for any L)")
        if modulus >> L != 1:
            raise ValueError(f"polynomial 0x{modulus:x} does not have degree {L}")
        self.L = L
        self.modulus = modulus
        self.order = order = (1 << L) - 1
        powers = [1]
        if modulus & 1:  # else x divides the modulus and has no order at all
            v = 2
            while v != 1:  # x is invertible, so v comes back to 1
                powers.append(v)
                v <<= 1
                if v >> L:
                    v ^= modulus
        if len(powers) != order:
            raise ValueError(
                f"0x{modulus:x} is not primitive of degree {L}; refusing to build field")
        self.exp_table = np.array(powers, dtype=np.int64)
        self.exp_table.flags.writeable = False
        # bit 0 of alpha^n, a nonzero linear form, obeys the modulus's recurrence, so
        # its windows are the Fibonacci register's states, all 2^L - 1 on one cycle
        s = self.exp_table & 1
        s = np.resize(s, order + L - 1)  # one period and its first L - 1 bits again
        self._windows = sum(s[i:i + order] << i for i in range(L))
        self._windows.flags.writeable = False

    def __reduce__(self):
        from .polytable import context_for  # polytable imports this module
        return context_for, (self.L, self.modulus)

    def __repr__(self) -> str:
        return f"FieldContext(L={self.L}, modulus=0x{self.modulus:x})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldContext)
                and (self.L, self.modulus) == (other.L, other.modulus))

    def __hash__(self) -> int:
        return hash((self.L, self.modulus))

    @cached_property
    def log_table(self) -> np.ndarray:
        """Discrete log base alpha of nonzero elements, read-only (log_table[0] is 0)."""
        log = np.zeros(1 << self.L, dtype=np.int64)
        log[self.exp_table] = np.arange(self.order, dtype=np.int64)
        log.flags.writeable = False
        return log
