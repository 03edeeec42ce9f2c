"""Maximal-length LFSR windows.

The register is a Fibonacci (external-xor) layout: the state holds the next
L output bits a_n..a_(n+L-1) with a_(n+i) at bit i, the output cell is
stage 0, and the feedback taps are the low-degree coefficients of the field
modulus, i.e. the recurrence a_(n+L) = sum c_i a_(n+i).  The canonical
phase is state 1, meaning a_0 = 1 and a_1 = ... = a_(L-1) = 0.
"""
from __future__ import annotations

import numpy as np

from .field import FieldContext


def window_table(ctx: FieldContext, initial_state: int = 1) -> np.ndarray:
    """All windows over one period as a read-only int64 array.

    The window at n, (a_n, ..., a_(n+L-1)) packed with a_(n+i) at bit i, is
    the register state after n clocks, so window_table(ctx, s) & 1 is the
    m-sequence from state s.  The context holds the windows of bit 0 of
    alpha^n, a nonzero linear form that obeys the same recurrence, and every
    nonzero state lies on that one cycle, so the table from s is the
    context's table rotated to start at s.
    """
    if not isinstance(initial_state, int) or initial_state <= 0 or initial_state >> ctx.L:
        shown = hex(initial_state) if isinstance(initial_state, int) else repr(initial_state)
        raise ValueError(f"initial state must be a nonzero {ctx.L}-bit value, got {shown}")
    table = ctx._windows
    rotated = np.roll(table, -int(np.flatnonzero(table == initial_state)[0]))
    rotated.flags.writeable = False
    return rotated
