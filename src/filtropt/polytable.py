"""The field for a register length: its default modulus or a user polynomial.

context_for(L) builds the FieldContext of field.PRIMITIVE[L], context_for(L,
poly) that of a user polynomial; either is verified by stepping the powers of
alpha = x over one period, and each is built once per process.
"""
from __future__ import annotations

from functools import lru_cache

from .field import PRIMITIVE, FieldContext


@lru_cache(maxsize=64)
def context_for(L: int, poly: int | None = None) -> FieldContext:
    """A verified FieldContext for L, with the default or a user polynomial.

    A length outside the table is past the sequence cap, which FieldContext
    refuses before it looks at the modulus.
    """
    return FieldContext(L, PRIMITIVE.get(L, 0) if poly is None else poly)
