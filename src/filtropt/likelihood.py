"""Exact and high-precision evaluation of the max-complexity probability.

For an order-k filter over L stages, the chance that a uniform draw from
the filter space reaches the complexity ceiling nk(L, k) is

    pr = nfm / nfk = prod over weight-<=k cosets of (1 - 2^-cardinal)
                     / (1 - 2^-C(L,k)),

where nfm multiplies (2^cardinal - 1) over those cosets and nfk counts the
order-k filters.  Small parameters get exact big-integer arithmetic; large
ones are evaluated in the log domain at a caller-chosen decimal precision
(>= 50 digits by default), using coset cardinal counts that never require
enumerating the cosets themselves.

Two comparison values accompany the probability.  The product form
prod (1 - 2^-cardinal) is a rigorous lower bound (dropping the positive
1/(1 - 2^-C(L,k)) correction only shrinks the value).  The closed forms
bound_general = exp(-nk/(2^L * L)) and bound_asymptotic = exp(-1/(2L))
approximate that product only where every weight-<=k coset has cardinal
L, as at every prime L, so that the product is (1 - 2^-L)^(nk/L).  Even
there exp(-x) > 1 - x puts them above the product, so they do not bound
pr from below.  At composite L each weight-<=k coset of cardinal d < L
costs a factor 1 - 2^-d that neither form sees, and both sit far above
pr: 0.963 and 0.969 against 0.590 at L = 16, k = 8.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from mpmath import mp, mpf

from .anf import count_filters
from .cosets import cardinal_counts, nk
from .limits import EXACT_NK_BIT_CAP, MAX_DIGITS

_GUARD_DIGITS = 10


def _ln_one_minus_pow2(d: int) -> mpf:
    """ln(1 - 2^-d) at the current working precision, for any d >= 1.

    mpmath's log1p keeps full relative precision however small 2^-d is, and
    its bignum exponents hold 2^-d even for d far past the precision.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    return mp.log1p(-mp.ldexp(1, -d))


def nfm(L: int, k: int) -> int:
    """Exact count of order-k filters reaching linear complexity nk(L, k).

    Product of (2^cardinal - 1) over the weight-<=k cosets.  Only available
    while the numbers fit the exact-mode budget; pr_report handles the rest
    in the log domain.
    """
    counts = cardinal_counts(L, k)
    if sum(d * c for d, c in counts.items()) > EXACT_NK_BIT_CAP:  # the total is nk(L, k)
        raise ValueError(
            f"nfm(L={L}, k={k}) needs about 2^{nk(L, k)} bits; "
            "use pr_report's log-domain mode instead")
    return _nfm(counts)


def _nfm(counts: dict[int, int]) -> int:
    out = 1
    for d, count in counts.items():
        out *= ((1 << d) - 1) ** count
    return out


def pr_exact(L: int, k: int) -> Fraction:
    """nfm/nfk in lowest terms; exact-mode parameters only."""
    return Fraction(nfm(L, k), count_filters(L, k))


def ln_probability_parts(L: int, k: int, digits: int = 50) -> tuple[mpf, mpf]:
    """ln pr split as (coset product term, filter-space correction).

    The first part is ln of the rigorous product bound; the second,
    -ln(1 - 2^-C(L,k)), is strictly positive, so their sum ln pr always
    exceeds the first part even when the gap is far below the working
    precision of a direct subtraction.
    """
    with mp.workdps(digits + _GUARD_DIGITS):
        return _ln_parts(L, k, cardinal_counts(L, k))


def _ln_parts(L: int, k: int, counts: dict[int, int]) -> tuple[mpf, mpf]:
    """ln_probability_parts from given cardinal counts, at the working precision."""
    product_term = mpf(0)
    for d, count in counts.items():
        product_term += mpf(count) * _ln_one_minus_pow2(d)
    return product_term, -_ln_one_minus_pow2(comb(L, k))


@dataclass
class LikelihoodReport:
    """Exact counts where feasible, log-domain decimals always.

    pr_float and ln_pr carry `digits` significant decimal digits; nfm, nfk
    and pr_exact are None in log-domain mode, where they would not fit in
    memory.  bound_general and bound_asymptotic are the exponential
    approximations described in the module docstring, reported for
    comparison rather than as guarantees.
    """

    L: int
    k: int
    n_cosets: int
    nk_value: int
    nfm: int | None
    nfk: int | None
    pr_exact: Fraction | None
    pr_float: mpf
    ln_pr: mpf
    bound_general: mpf
    bound_asymptotic: mpf | None
    mode: str
    digits: int


def pr_report(L: int, k: int, digits: int = 50) -> LikelihoodReport:
    """Evaluate the probability and its companion quantities.

    exp(-1/(2L)) is reported exactly when k is L/2 rounded either way (the
    regime where nk(L,k) is about 2^(L-1)).
    """
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must lie in [1, {MAX_DIGITS}], got {digits}")
    counts = cardinal_counts(L, k)  # refuses k * L past limits.MAX_REPORT_KL
    # nk(L, k) is the cardinals' total, which cardinal_counts checked against
    # the binomial sum; summing that again costs as much as the rest at L = 10^5
    nk_value = sum(d * c for d, c in counts.items())
    n_cosets = sum(counts.values())
    exact = nk_value <= EXACT_NK_BIT_CAP

    with mp.workdps(digits + _GUARD_DIGITS):
        product_term, correction = _ln_parts(L, k, counts)
        ln_pr = product_term + correction
        pr_float = mp.exp(ln_pr)
        bound_general = mp.exp(-mpf(nk_value) / (mp.ldexp(1, L) * L))
        asym = None
        if k in (L // 2, (L + 1) // 2):
            asym = mp.exp(mpf(-1) / (2 * L))

        m = f = ratio = None
        if exact:
            m = _nfm(counts)
            f = count_filters(L, k)
            ratio = Fraction(m, f)
            pr_from_ints = mpf(ratio.numerator) / mpf(ratio.denominator)
            if abs(pr_from_ints - pr_float) > mp.ldexp(abs(pr_from_ints), -mp.prec + 12):
                raise AssertionError("exact and log-domain evaluations disagree")
            if not 0 < ratio <= 1:
                raise AssertionError("probability out of (0, 1]")
            pr_float = pr_from_ints
        return LikelihoodReport(L, k, n_cosets, nk_value, m, f, ratio, pr_float, ln_pr,
                                bound_general, asym, "exact" if exact else "log-domain", digits)
