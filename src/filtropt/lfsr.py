"""Maximal-length LFSR generation and window access.

The register is a Fibonacci (external-xor) layout: the state holds the next
L output bits a_n..a_(n+L-1) with a_(n+i) at bit i, the output cell is
stage 0, and the feedback taps are the low-degree coefficients of the field
modulus, i.e. the recurrence a_(n+L) = sum c_i a_(n+i).  The canonical
phase is state 1, meaning a_0 = 1 and a_1 = ... = a_(L-1) = 0.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .field import FieldContext


class LfsrGenerator:
    """Mutable m-sequence generator; cheap to clone for parallel trials.

    next_bit() advances a private cursor; window() and period_bits() are
    pure functions of the seed and never disturb that cursor.
    """

    def __init__(self, ctx: FieldContext, initial_state: int = 1):
        if not isinstance(initial_state, int) or initial_state <= 0 or initial_state >> ctx.L:
            raise ValueError(
                f"initial state must be a nonzero {ctx.L}-bit value, got {initial_state!r}")
        self.ctx = ctx
        self.initial_state = initial_state
        self.state = initial_state
        self._taps = ctx.modulus & (ctx.order)  # coefficients below degree L
        self._period_cache: list[int] | None = None

    def clone(self) -> "LfsrGenerator":
        g = LfsrGenerator(self.ctx, self.initial_state)
        g.state = self.state
        return g

    def next_bit(self) -> int:
        """Emit the output cell and advance the register by one clock."""
        out = self.state & 1
        fb = (self.state & self._taps).bit_count() & 1
        self.state = (self.state >> 1) | (fb << (self.ctx.L - 1))
        return out

    def output_bits(self, length: int) -> list[int]:
        """The next `length` output bits, advancing the cursor."""
        return [self.next_bit() for _ in range(length)]

    def period_bits(self) -> list[int]:
        """One full period a_0..a_(2^L - 2) from the seed phase; cached."""
        if self._period_cache is None:
            g = LfsrGenerator(self.ctx, self.initial_state)
            self._period_cache = g.output_bits(self.ctx.order)
        return self._period_cache

    def window(self, n: int) -> int:
        """The L-bit window (a_n, ..., a_(n+L-1)) packed with a_(n+i) at bit i."""
        if n < 0:
            raise ValueError("window index must be non-negative")
        bits = self.period_bits()
        period = self.ctx.order
        w = 0
        for i in range(self.ctx.L):
            w |= bits[(n + i) % period] << i
        return w


@lru_cache(maxsize=32)
def _window_table(ctx: FieldContext, initial_state: int) -> np.ndarray:
    bits = np.array(LfsrGenerator(ctx, initial_state).period_bits(), dtype=np.int64)
    table = np.zeros(ctx.order, dtype=np.int64)
    for i in range(ctx.L):
        table |= np.roll(bits, -i) << i
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def window_table(ctx: FieldContext, initial_state: int = 1) -> np.ndarray:
    """All windows over one period as a read-only int64 array.

    window_table(ctx)[n] == gen.window(n); the window at n is the register
    state after n clocks.
    """
    return _window_table(ctx, initial_state)


def _solve_gf2(rows: list[int], rhs: list[int], n_vars: int) -> tuple[int, list[int]] | None:
    """Solve the GF(2) system rows*x = rhs; returns (solution, kernel basis)."""
    eqs = [(rows[i], rhs[i]) for i in range(len(rows))]
    pivots: dict[int, tuple[int, int]] = {}
    for row, b in eqs:
        for col in sorted(pivots, reverse=True):
            if row >> col & 1:
                prow, pb = pivots[col]
                row ^= prow
                b ^= pb
        if row:
            pivots[row.bit_length() - 1] = (row, b)
        elif b:
            return None
    # rows hold only bits <= their pivot column, so substitute ascending
    sol = 0
    for col in sorted(pivots):
        row, b = pivots[col]
        acc = b
        for j in range(col):
            if row >> j & 1:
                acc ^= sol >> j & 1
        if acc:
            sol |= 1 << col
    kernel = []
    free = [c for c in range(n_vars) if c not in pivots]
    for f in free:
        vec = 1 << f
        for col in sorted(pivots):
            row, _ = pivots[col]
            acc = 0
            for j in range(col):
                if row >> j & 1:
                    acc ^= vec >> j & 1
            if acc:
                vec |= 1 << col
        kernel.append(vec)
    return sol, kernel


def trace_consistency(gen: LfsrGenerator, bits: list[int] | None = None) -> bool:
    """Whether a_n = trace(c * alpha^n) for some nonzero c over one period.

    The phase constant c is recovered from the first L bits by linear
    algebra (trace is GF(2)-linear in c), then checked against the whole
    period.  Passing an explicit bit sequence checks that sequence instead
    of the generator's own output.
    """
    ctx = gen.ctx
    if bits is None:
        bits = gen.period_bits()
    if len(bits) != ctx.order:
        raise ValueError(f"need exactly one period of {ctx.order} bits")
    mask = ctx.trace_mask
    # rows[n] bit i = trace(e_i * alpha^n)
    rows = []
    an = 1
    for n in range(ctx.L):
        row = 0
        for i in range(ctx.L):
            row |= ((ctx.mul(1 << i, an) & mask).bit_count() & 1) << i
        rows.append(row)
        an = ctx.mul_alpha(an)
    solved = _solve_gf2(rows, list(bits[:ctx.L]), ctx.L)
    if solved is None:
        return False
    base, kernel = solved
    candidates = [base]
    for vec in kernel:
        candidates += [c ^ vec for c in candidates]
    for c in candidates:
        if c == 0:
            continue
        v = c
        for n in range(ctx.order):
            if ((v & mask).bit_count() & 1) != bits[n]:
                break
            v = ctx.mul_alpha(v)
        else:
            return True
    return False
