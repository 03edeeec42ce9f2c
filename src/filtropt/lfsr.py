"""Maximal-length LFSR windows and the trace-form check.

The register is a Fibonacci (external-xor) layout: the state holds the next
L output bits a_n..a_(n+L-1) with a_(n+i) at bit i, the output cell is
stage 0, and the feedback taps are the low-degree coefficients of the field
modulus, i.e. the recurrence a_(n+L) = sum c_i a_(n+i).  The canonical
phase is state 1, meaning a_0 = 1 and a_1 = ... = a_(L-1) = 0.
"""
from __future__ import annotations

import numpy as np

from .field import FieldContext, _check_period


def window_table(ctx: FieldContext, initial_state: int = 1) -> np.ndarray:
    """All windows over one period as a read-only int64 array.

    The window at n, (a_n, ..., a_(n+L-1)) packed with a_(n+i) at bit i, is
    the register state after n clocks, so window_table(ctx, s) & 1 is the
    m-sequence from state s.  The context clocked the register from state 1
    when it verified its modulus, and every nonzero state lies on that one
    cycle, so the table from s is the state-1 table rotated to start at s.
    """
    if not isinstance(initial_state, int) or initial_state <= 0 or initial_state >> ctx.L:
        raise ValueError(
            f"initial state must be a nonzero {ctx.L}-bit value, got {initial_state!r}")
    table = ctx._windows
    rotated = np.roll(table, -int(np.flatnonzero(table == initial_state)[0]))
    rotated.flags.writeable = False
    return rotated


def trace_consistency(ctx: FieldContext, z: int) -> bool:
    """Whether z_n = trace(c * alpha^n) for some nonzero c over one packed period.

    Every nonzero c is alpha^t, so the trace-form sequences are exactly the
    rotations of s = (trace(alpha^n))_n, read from the field's exp table as
    parity(alpha^n & trace_mask).  The L-bit windows of s run once through
    every nonzero value, so only the t whose window matches z's first L bits
    can work; then one rotation is compared.
    """
    order, L = ctx.order, ctx.L
    _check_period(z, order)
    bits = (np.bitwise_count(ctx.exp_table & ctx.trace_mask) & 1).astype(np.uint8)
    s = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    windows = sum(np.roll(bits, -i).astype(np.int64) << i for i in range(L))
    hits = np.flatnonzero(windows == z & ((1 << L) - 1))
    if not len(hits):
        return False
    t = int(hits[0])
    return (s >> t | s << (order - t)) & ((1 << order) - 1) == z
