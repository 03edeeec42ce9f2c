"""Embedded table of primitive polynomials, one per register length.

One record per length L = 2..field.DESK_MAX_L: a primitive polynomial of
degree L as a hex bitmask under "poly" (bit i = coefficient of x^i).  The
table ships as package data; the FILTROPT_POLY_TABLE environment variable
may point at a replacement JSON file with the same shape.  Other keys in a
record (older tables carried "factors") are ignored: a polynomial is
verified by FieldContext, which clocks its register over one period.
"""
from __future__ import annotations

import json
import os
from functools import lru_cache
from importlib import resources

from .field import FieldContext, _check_length

ENV_TABLE_VAR = "FILTROPT_POLY_TABLE"


def _table_path() -> str | None:
    return os.environ.get(ENV_TABLE_VAR) or None


@lru_cache(maxsize=4)
def _load(path: str | None) -> dict[int, int]:
    if path is None:
        return _parse(json.loads(
            resources.files("filtropt").joinpath("data/polynomials.json").read_text()))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{ENV_TABLE_VAR}={path!r} is not a usable polynomial table "
                         f"({type(exc).__name__}: {exc})") from None


def _parse(raw) -> dict[int, int]:
    return {int(key): int(rec["poly"], 16) for key, rec in raw.items()}


def table() -> dict[int, int]:
    """The active polynomial table: L -> poly bitmask."""
    return _load(_table_path())


def supported_lengths() -> list[int]:
    return sorted(table())


def polynomial_for(L: int) -> int:
    """The embedded primitive polynomial for L, or a ValueError naming options."""
    try:
        return table()[L]
    except KeyError:
        raise ValueError(
            f"no embedded polynomial for L={L}; supported lengths: "
            f"{supported_lengths()}") from None


@lru_cache(maxsize=64)
def _context(L: int, poly: int) -> FieldContext:
    return FieldContext(L, poly)


def context_for(L: int, poly: int | None = None) -> FieldContext:
    """A verified FieldContext for L, with the embedded or a user polynomial.

    A length past the sequence cap is refused as such before the table is
    consulted for a missing entry.
    """
    if poly is None:
        _check_length(L)
        poly = polynomial_for(L)
    return _context(L, poly)
