"""Finite-field spectral analysis of period-(2^L - 1) binary sequences.

The transform evaluates C_j = sum_n z_n * alpha^(-jn) at one exponent j per
cyclotomic coset (the leader); other members of a coset carry conjugate
coefficients, so storing them would add nothing.  A sequence is recovered
from its spectrum by the conjugate-closed sums

    z_n = sum over lines of (C alpha^(jn)) + (C alpha^(jn))^2 + ...
          ... + (C alpha^(jn))^(2^(r-1)),

each inner sum landing in {0, 1} because squaring permutes its terms.
Linear complexity equals the summed cardinals of the nonzero lines and the
period is the lcm of the per-coset periods, which turns both claims into
table lookups once the spectrum is known.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

import numpy as np

from .cosets import CyclotomicCoset, coset_period, cosets_up_to_weight
from .field import FieldContext, _check_period


@dataclass(frozen=True)
class SpectralLine:
    """One coset paired with its nonzero coefficient."""

    coset: CyclotomicCoset
    coefficient: int


@dataclass(frozen=True)
class Spectrum:
    """Spectral lines keyed by coset leader; absent leader means C = 0."""

    ctx: FieldContext
    lines: dict[int, SpectralLine] = field(default_factory=dict)

    def __post_init__(self):
        for leader, line in self.lines.items():
            if leader != line.coset.leader:
                raise ValueError(f"line keyed {leader} belongs to the coset led by "
                                 f"{line.coset.leader}")
            c = line.coefficient
            if not isinstance(c, int) or c <= 0 or c >> self.ctx.L:
                raise ValueError(f"coefficient {c!r} of line {leader} is not a nonzero "
                                 f"reduced element of GF(2^{self.ctx.L})")


def dft(z: int, ctx: FieldContext) -> Spectrum:
    """Project one packed period (z_n at bit n) onto the coset leaders; nonzero lines only."""
    order = ctx.order
    _check_period(z, order)
    exp = ctx.exp_table
    raw = np.frombuffer(z.to_bytes((order + 7) // 8, "little"), dtype=np.uint8)
    ones = np.flatnonzero(np.unpackbits(raw, bitorder="little"))
    lines: dict[int, SpectralLine] = {}
    for coset in cosets_up_to_weight(ctx.L, ctx.L):
        idx = (-coset.leader * ones) % order
        coeff = int(np.bitwise_xor.reduce(exp[idx]))
        if coeff:
            lines[coset.leader] = SpectralLine(coset, coeff)
    return Spectrum(ctx, lines)


def reconstruct_period(s: Spectrum) -> int:
    """z_0..z_(2^L - 2) packed into an int, by the conjugate-closed sums over exp/log tables."""
    ctx = s.ctx
    order = ctx.order
    exp = ctx.exp_table
    ns = np.arange(order, dtype=np.int64)
    acc = np.zeros(order, dtype=np.int64)
    for line in s.lines.values():
        lg = int(ctx.log_table[line.coefficient])
        e = line.coset.leader
        for _ in range(line.coset.cardinal):  # conjugates: C -> C^2 doubles log C
            acc ^= exp[(e * ns + lg) % order]
            lg = 2 * lg % order
            e = (e * 2) % order
    bad = np.flatnonzero(acc > 1)
    if len(bad):
        raise AssertionError("conjugate sums escaped GF(2); spectrum is inconsistent")
    return int.from_bytes(np.packbits(acc.astype(np.uint8), bitorder="little").tobytes(),
                          "little")


def verify_subfield(s: Spectrum) -> bool:
    """Claim check: every coefficient satisfies C^(2^r) = C for its coset size r.

    On logs: log(C) * 2^r = log(C) (mod 2^L - 1).
    """
    order = s.ctx.order
    for line in s.lines.values():
        lg = int(s.ctx.log_table[line.coefficient])
        if (lg << line.coset.cardinal) % order != lg:
            return False
    return True


def lc_from_spectrum(s: Spectrum) -> int:
    """Linear complexity: summed cardinals of the present cosets."""
    return sum(line.coset.cardinal for line in s.lines.values())


def period_from_spectrum(s: Spectrum) -> int:
    """Period: lcm of the per-coset periods; undefined on an empty spectrum."""
    if not s.lines:
        raise ValueError("empty spectrum: the zero sequence has no spectral period")
    return lcm(*(coset_period(line.coset, s.ctx.L) for line in s.lines.values()))
