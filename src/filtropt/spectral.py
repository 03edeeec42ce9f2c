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
from .field import FieldContext, FieldElement


@dataclass(frozen=True)
class SpectralLine:
    """One coset paired with its nonzero coefficient."""

    coset: CyclotomicCoset
    coefficient: FieldElement


@dataclass(frozen=True)
class Spectrum:
    """Spectral lines keyed by coset leader; absent leader means C = 0."""

    ctx: FieldContext
    lines: dict[int, SpectralLine] = field(default_factory=dict)

    def leaders(self) -> list[int]:
        return sorted(self.lines)

    def __len__(self) -> int:
        return len(self.lines)


def dft(z: int, ctx: FieldContext) -> Spectrum:
    """Project one packed period (z_n at bit n) onto the coset leaders; nonzero lines only."""
    order = ctx.order
    if z < 0 or z >> order:
        raise ValueError(f"need one period of {order} bits packed into an int")
    exp = np.array(ctx.exp_table, dtype=np.int64)
    raw = np.frombuffer(z.to_bytes((order + 7) // 8, "little"), dtype=np.uint8)
    ones = np.flatnonzero(np.unpackbits(raw, bitorder="little"))
    lines: dict[int, SpectralLine] = {}
    if len(ones) == 0:
        return Spectrum(ctx, lines)
    for coset in cosets_up_to_weight(ctx.L, ctx.L):
        j = coset.leader % order  # constant coset folds to exponent 0
        idx = (-j * ones) % order
        coeff = int(np.bitwise_xor.reduce(exp[idx]))
        if coeff:
            lines[coset.leader] = SpectralLine(coset, coeff)
    return Spectrum(ctx, lines)


def reconstruct_period(s: Spectrum) -> int:
    """z_0..z_(2^L - 2) packed into an int, by the conjugate-closed sums over exp/log tables."""
    ctx = s.ctx
    order = ctx.order
    exp = np.array(ctx.exp_table, dtype=np.int64)
    log = ctx.log_table
    ns = np.arange(order, dtype=np.int64)
    acc = np.zeros(order, dtype=np.int64)
    for line in s.lines.values():
        coeff = line.coefficient
        e = line.coset.leader % order
        for _ in range(line.coset.cardinal):
            acc ^= exp[(e * ns + log[coeff]) % order]
            coeff = ctx.mul(coeff, coeff)
            e = (e * 2) % order
    bad = np.flatnonzero(acc > 1)
    if len(bad):
        raise AssertionError("conjugate sums escaped GF(2); spectrum is inconsistent")
    return int.from_bytes(np.packbits(acc.astype(np.uint8), bitorder="little").tobytes(),
                          "little")


def verify_subfield(s: Spectrum) -> bool:
    """Claim check: every coefficient satisfies C^(2^r) = C for its coset size r."""
    ctx = s.ctx
    for line in s.lines.values():
        c = line.coefficient
        for _ in range(line.coset.cardinal):
            c = ctx.mul(c, c)
        if c != line.coefficient:
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
