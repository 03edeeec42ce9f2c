"""Embedded table of verified primitive polynomials with factorizations.

One record per supported register length L: a primitive polynomial of
degree L (hex bitmask, bit i = coefficient of x^i) and the prime
factorization of 2^L - 1 needed to re-verify primitivity.  The table ships
as package data; the FILTROPT_POLY_TABLE environment variable may point at
a replacement JSON file with the same shape.
"""
from __future__ import annotations

import json
import os
from functools import lru_cache
from importlib import resources

from .field import FieldContext

ENV_TABLE_VAR = "FILTROPT_POLY_TABLE"


def _table_path() -> str | None:
    return os.environ.get(ENV_TABLE_VAR) or None


@lru_cache(maxsize=4)
def _load(path: str | None) -> dict[int, tuple[int, tuple[int, ...]]]:
    if path is None:
        return _parse(json.loads(
            resources.files("filtropt").joinpath("data/polynomials.json").read_text()))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _parse(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{ENV_TABLE_VAR}={path!r} is not a usable polynomial table "
                         f"({type(exc).__name__}: {exc})") from None


def _parse(raw) -> dict[int, tuple[int, tuple[int, ...]]]:
    return {int(key): (int(rec["poly"], 16), tuple(int(f) for f in rec["factors"]))
            for key, rec in raw.items()}


def table() -> dict[int, tuple[int, tuple[int, ...]]]:
    """The active polynomial table: L -> (poly bitmask, factor tuple)."""
    return _load(_table_path())


def supported_lengths() -> list[int]:
    return sorted(table())


def polynomial_for(L: int) -> int:
    """The embedded primitive polynomial for L, or a ValueError naming options."""
    try:
        return table()[L][0]
    except KeyError:
        raise ValueError(
            f"no embedded polynomial for L={L}; supported lengths: "
            f"{supported_lengths()}") from None


def factorization_for(L: int) -> tuple[int, ...]:
    """Prime factorization (with multiplicity) of 2^L - 1 for a table L."""
    try:
        return table()[L][1]
    except KeyError:
        raise ValueError(
            f"no embedded factorization for L={L}; supported lengths: "
            f"{supported_lengths()}") from None


@lru_cache(maxsize=64)
def _context(path: str | None, L: int, poly: int) -> FieldContext:
    return FieldContext(L, poly, _load(path)[L][1])


def context_for(L: int, poly: int | None = None) -> FieldContext:
    """A verified FieldContext for L, with the embedded or a user polynomial.

    A user polynomial is vetted against the embedded factorization; without
    a table entry for L there is nothing to vet against and the call fails.
    """
    if L not in table():
        raise ValueError(
            f"L={L} has no table entry (needed for the factorization of 2^L - 1); "
            f"supported lengths: {supported_lengths()}")
    if poly is None:
        poly = polynomial_for(L)
    return _context(_table_path(), L, poly)
