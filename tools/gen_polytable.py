#!/usr/bin/env python3
"""Regenerate src/filtropt/data/polynomials.json.

For each length L = 2..DESK_MAX_L, searches trinomials (pentanomials as
fallback) for the lexicographically first primitive polynomial of degree L.
A candidate is primitive when FieldContext accepts it, that is when its
register runs through all 2^L - 1 nonzero states before returning to state 1.

Run from the repository root:  python tools/gen_polytable.py
"""
from __future__ import annotations

import json
import sys
from itertools import chain, combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from filtropt.field import DESK_MAX_L, FieldContext  # noqa: E402


def find_primitive(L: int) -> int:
    top = 1 << L | 1
    trinomials = (top | 1 << a for a in range(1, L))
    pentanomials = (top | 1 << c | 1 << b | 1 << a for a, b, c in combinations(range(1, L), 3))
    for poly in chain(trinomials, pentanomials):
        try:
            return FieldContext(L, poly).modulus
        except ValueError:  # not primitive
            pass
    raise RuntimeError(f"no primitive trinomial/pentanomial of degree {L}")


def main() -> None:
    table = {}
    for L in range(2, DESK_MAX_L + 1):
        poly = find_primitive(L)
        table[str(L)] = {"poly": hex(poly)}
        print(f"L={L}: {hex(poly)}")
    out = Path(__file__).resolve().parent.parent / "src" / "filtropt" / "data" / "polynomials.json"
    out.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
