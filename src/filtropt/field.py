"""GF(2^L) as a primitive modulus verified by its register, plus exp/log tables.

Field elements are plain ints carrying the polynomial-basis coefficient
bitmask (bit i = coefficient of x^i), so 0 and 1 are the additive and
multiplicative identities and addition is xor.  A ``FieldContext`` is a
primitive modulus of degree L and its tables: ``exp_table[n]`` is alpha^n,
``log_table`` inverts it on the nonzero elements, and ``trace_mask`` turns
the absolute trace into a masked parity, so a product is a sum of logs and
a trace is one popcount.

Primitivity is checked by the generator itself: an LFSR of length L runs
through all 2^L - 1 nonzero states exactly when its feedback polynomial is
primitive (Golomb, Shift Register Sequences, 1967).  The constructor clocks
the Fibonacci register of the modulus from state 1 and keeps the states it
visits as the state-1 window table (see lfsr.window_table).  Before any
clock it checks the one cap on sequence work, 2 <= L <= DESK_MAX_L.

PRIMITIVE holds the default modulus for every length up to that cap, and
its largest key is the cap.  Entry L is the first primitive polynomial among
the trinomials x^L + x^a + 1 by ascending a, then the pentanomials
x^L + x^c + x^b + x^a + 1 by ascending (a, b, c) with a < b < c; a test
repeats that search.  Raising the cap means adding entries.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

FieldElement = int

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


def _check_length(L: int) -> None:
    """The one cap on sequence work: 2 <= L <= DESK_MAX_L."""
    if not 2 <= L <= DESK_MAX_L:
        raise ValueError(f"sequence work is capped at 2 <= L <= {DESK_MAX_L}, got L={L} "
                         f"(analytic reports remain available for any L)")


class FieldContext:
    """A primitive modulus of degree L, its window table and exp/log tables.

    Construction clocks the Fibonacci register whose taps are the modulus
    coefficients below x^L (the layout of lfsr.window_table) from state 1,
    and refuses the modulus unless the register first returns to state 1
    after exactly 2^L - 1 clocks.  Safe to share across threads/processes:
    every table is read-only, and a pickled context is rebuilt (and
    re-verified) on arrival rather than shipped as writeable copies.
    """

    def __init__(self, L: int, modulus: int):
        _check_length(L)
        if modulus >> L != 1:
            raise ValueError(f"polynomial 0x{modulus:x} does not have degree {L}")
        self.L = L
        self.modulus = modulus
        self.order = (1 << L) - 1
        taps = modulus & self.order
        top = L - 1
        states = []
        state = 1
        for _ in range(self.order):
            states.append(state)
            state = state >> 1 | ((state & taps).bit_count() & 1) << top
            if state <= 1:  # back at state 1, or stuck at 0 (x divides the modulus)
                break
        if state != 1 or len(states) != self.order:
            raise ValueError(
                f"0x{modulus:x} is not primitive of degree {L}; refusing to build field")
        self._windows = np.array(states, dtype=np.int64)
        self._windows.flags.writeable = False

    def __reduce__(self):
        return FieldContext, (self.L, self.modulus)

    def __repr__(self) -> str:
        return f"FieldContext(L={self.L}, modulus=0x{self.modulus:x})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldContext)
                and (self.L, self.modulus) == (other.L, other.modulus))

    def __hash__(self) -> int:
        return hash((self.L, self.modulus))

    @cached_property
    def exp_table(self) -> np.ndarray:
        """alpha^n for n in [0, 2^L - 2], read-only."""
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
