"""Boolean filter functions in algebraic normal form.

A filter of order k over L register stages is an xor of and-monomials.
A monomial is stored as its tap bitmask (bit t set for tap x_t, t in
[0, L-1]) and a filter as the strictly ascending tuple of its masks.  There
is no constant term, and at least one monomial has exactly k taps, so the
filters of order k for k = 1..L partition the nonzero constant-free
functions.  Text form: monomials joined by '+', taps joined by '*', taps
written x<index> ("x0 + x1*x3").  Filters from outside the program, as text
or as JSON tap lists, all pass through filter_from_monomial_lists.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count, repeat
from math import comb
from typing import Iterable, Iterator

from .field import FieldContext
from .lfsr import window_table
from .limits import ENUMERATION_CAP, check_order

_TAP_RE = re.compile(r"^x([0-9]+)$")  # \d would take any Unicode digit


class AnfParseError(ValueError):
    """Raised for malformed ANF text or tap lists."""


@dataclass(frozen=True)
class FilterFunction:
    """An order-k filter in ANF: one tap mask per monomial, strictly ascending."""

    L: int
    masks: tuple[int, ...]

    def __post_init__(self):
        masks = self.masks
        if not masks:
            raise ValueError("a filter needs at least one monomial")
        if masks[0] < 1 or masks[-1] >> self.L:
            raise ValueError(f"monomial masks must lie in [1, 2^{self.L})")
        if any(a >= b for a, b in zip(masks, masks[1:])):
            raise ValueError("monomial masks must be strictly ascending")

    @property
    def k(self) -> int:
        """Order: the largest monomial size."""
        return max(m.bit_count() for m in self.masks)


def evaluate(f: FilterFunction, w: int) -> int:
    """Evaluate f on an L-bit window given as an int (bit t holds x_t)."""
    if w < 0 or w >> f.L:
        raise ValueError(f"window {w!r} is not an L={f.L} bit vector")
    out = 0
    for mask in f.masks:
        out ^= (w & mask) == mask
    return out & 1


def _check_field(f: FilterFunction, ctx: FieldContext) -> None:
    """The one check that a filter's taps lie on the field's register."""
    if f.L != ctx.L:
        raise ValueError(f"filter has L={f.L} but the field has L={ctx.L}")


def filter_sequence(f: FilterFunction, ctx: FieldContext, initial_state: int = 1) -> list[int]:
    """z_n = f(a_n, ..., a_(n+L-1)) over one period: the per-bit reference."""
    _check_field(f, ctx)
    return [evaluate(f, w) for w in window_table(ctx, initial_state).tolist()]


def count_filters(L: int, k: int) -> int:
    """Exact size of the order-k filter space: (2^C(L,k) - 1) * 2^C(L,k-1) * ... * 2^C(L,1)."""
    check_order(L, k)
    lower = sum(comb(L, d) for d in range(1, k))
    return ((1 << comb(L, k)) - 1) << lower


def census_size(L: int, k: int) -> int:
    """count_filters(L, k), refused past limits.ENUMERATION_CAP: the one cap on a census."""
    total = count_filters(L, k)
    if total > ENUMERATION_CAP:
        # count written as a power of two: it can be too big even to print
        raise ValueError(
            f"census of about 2^{total.bit_length() - 1} filters exceeds the cap "
            f"of {ENUMERATION_CAP}; use sample (run_monte_carlo) instead")
    return total


@lru_cache(maxsize=8)
def selectable_masks(L: int, k: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """Tap masks of every monomial of size 1..k, ascending, each with its selector bit.

    A selector's low n_low bits pick the size 1..k-1 monomials (size-major,
    then lexicographic in taps), the n_top bits above them the size-k ones
    (lexicographic).  Returns the (mask, bit) pairs and n_low; cached, since
    every draw and census block at one (L, k) shares the pool.
    """
    taps = [1 << t for t in range(L)]
    low = [sum(c) for d in range(1, k) for c in combinations(taps, d)]
    top = [sum(c) for c in combinations(taps, k)]
    return tuple(sorted(zip(low + top, count()))), len(low)


def _decode_selector(pool: tuple[tuple[int, int], ...], selector: int) -> tuple[int, ...]:
    """The masks of pool whose selector bit is set, ascending: a linear-time decode."""
    bits = format(selector, f"0{len(pool)}b")[::-1]  # the selector read once: bits[i] is bit i
    # tuple() of a list: a generator's tuple is resized after allocation, which
    # strands tuples on CPython's per-size free lists (+2 MB peak RSS at L=5)
    return tuple([m for m, bit in pool if bits[bit] == "1"])


def random_filter(L: int, k: int, rng) -> FilterFunction:
    """Uniform draw from the order-k space using a seeded random.Random.

    The degree-k monomial subset is uniform over nonzero subsets; every
    lower-degree monomial is included independently with probability 1/2.
    """
    count_filters(L, k)  # validates range
    pool, n_low = selectable_masks(L, k)
    top_bits = rng.randrange(1, 1 << (len(pool) - n_low))
    low_bits = rng.getrandbits(n_low)
    return FilterFunction(L, _decode_selector(pool, top_bits << n_low | low_bits))


def enumerate_filters(L: int, k: int, start: int = 0,
                      stop: int | None = None) -> Iterator[FilterFunction]:
    """Yield every order-k filter exactly once, in a stable indexable order.

    Index layout: the degree-k subset bitmask ascends from 1 in the outer
    position, the lower-degree bitmask ascends from 0 inside, so slices
    [start, stop) can be handed to parallel workers.  Index i is thus the
    selector i + 2^n_low of selectable_masks.
    """
    total = census_size(L, k)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise ValueError(f"bad range [{start}, {stop}) for {total} filters")
    pool, n_low = selectable_masks(L, k)
    for selector in range(start + (1 << n_low), stop + (1 << n_low)):
        yield FilterFunction(L, _decode_selector(pool, selector))


def parse_anf(text: str, L: int) -> FilterFunction:
    """Parse ANF text like "x0 + x1*x3"; whitespace is ignored."""
    squeezed = re.sub(r"\s+", "", text)
    if not squeezed:
        raise AnfParseError("empty filter expression")
    monomials: list[list[int]] = []
    for term in squeezed.split("+"):
        if not term:
            raise AnfParseError("empty monomial (stray '+')")
        if term == "1":
            raise AnfParseError("constant term not allowed in a filter")
        taps = []
        for tok in term.split("*"):
            m = _TAP_RE.match(tok)
            if not m:
                raise AnfParseError(f"bad tap {tok!r}, expected x<index>")
            taps.append(int(m.group(1)))
        monomials.append(taps)
    return filter_from_monomial_lists(L, monomials)


@lru_cache(maxsize=1 << 16)  # every monomial of an L = 16 register
def _monomial_text(L: int, mask: int) -> tuple[int, str]:
    """(sort key, text) of a monomial.  Keys order by size, then taps: at one size,
    tap tuples ascend as the masks read with x0 as the top bit descend."""
    taps = [t for t in range(L) if mask >> t & 1]
    x0_on_top = sum(1 << (L - 1 - t) for t in taps)
    return len(taps) << L | ((1 << L) - 1 - x0_on_top), "*".join(f"x{t}" for t in taps)


def format_anf(f: FilterFunction) -> str:
    """Canonical text form: taps ascending, monomials by (size, taps)."""
    return " + ".join([text for _, text in sorted(map(_monomial_text, repeat(f.L), f.masks))])


def filter_from_monomial_lists(L: int, monomials: Iterable[list[int]]) -> FilterFunction:
    """The one check on filters from outside the program: a list of tap lists.

    Taps may come in any order within a monomial, monomials in any order.
    Rejects non-list monomials, taps that are not ints (bools included) or
    lie outside [0, L-1], a tap twice in a monomial and a monomial twice.
    """
    masks = set()
    for taps in monomials:
        if not isinstance(taps, list):
            raise AnfParseError(f"monomial {taps!r} is not a list of taps")
        if not taps:
            raise AnfParseError("constant term not allowed in a filter")
        for t in taps:
            if not isinstance(t, int) or isinstance(t, bool):
                raise AnfParseError(f"tap {t!r} is not an integer")
        term = "*".join(f"x{t}" for t in taps)
        if len(set(taps)) != len(taps):
            raise AnfParseError(f"duplicate tap in monomial {term!r}")
        for t in taps:
            if not 0 <= t < L:
                raise AnfParseError(f"tap x{t} out of range for L={L}")
        mask = sum(1 << t for t in taps)
        if mask in masks:
            raise AnfParseError(f"duplicate monomial {term!r}")
        masks.add(mask)
    return FilterFunction(L, tuple(sorted(masks)))
