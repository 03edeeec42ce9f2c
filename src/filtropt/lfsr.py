"""Maximal-length LFSR windows and the trace-form check.

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


@lru_cache(maxsize=32)
def _window_table(ctx: FieldContext, initial_state: int) -> np.ndarray:
    taps = ctx.modulus & ctx.order  # coefficients below degree L
    top = ctx.L - 1
    states = []
    state = initial_state
    for _ in range(ctx.order):
        states.append(state)
        state = state >> 1 | ((state & taps).bit_count() & 1) << top
    table = np.array(states, dtype=np.int64)
    table.flags.writeable = False  # shared by every caller through the cache
    return table


def window_table(ctx: FieldContext, initial_state: int = 1) -> np.ndarray:
    """All windows over one period as a read-only int64 array.

    The window at n, (a_n, ..., a_(n+L-1)) packed with a_(n+i) at bit i, is
    the register state after n clocks, so window_table(ctx, s) & 1 is the
    m-sequence from state s.
    """
    if not isinstance(initial_state, int) or initial_state <= 0 or initial_state >> ctx.L:
        raise ValueError(
            f"initial state must be a nonzero {ctx.L}-bit value, got {initial_state!r}")
    return _window_table(ctx, initial_state)


def trace_consistency(ctx: FieldContext, z: int) -> bool:
    """Whether z_n = trace(c * alpha^n) for some nonzero c over one packed period.

    Every nonzero c is alpha^t, so the trace-form sequences are exactly the
    rotations of s = (trace(alpha^n))_n.  The L-bit windows of s run once
    through every nonzero value, so sliding one over s finds the only t
    whose window matches z's first L bits; then one rotation is compared.
    """
    order, L = ctx.order, ctx.L
    if z < 0 or z >> order:
        raise ValueError(f"need one period of {order} bits packed into an int")
    mask = ctx.trace_mask
    bits = []
    v = 1
    for _ in range(order):
        bits.append((v & mask).bit_count() & 1)
        v = ctx.mul_alpha(v)
    s = int("".join(map(str, reversed(bits))), 2)
    head = z & ((1 << L) - 1)
    window = s & ((1 << L) - 1)
    for t in range(order):
        if window == head:
            return (s >> t | s << (order - t)) & ((1 << order) - 1) == z
        window = window >> 1 | bits[(t + L) % order] << (L - 1)
    return False
