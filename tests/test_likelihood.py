import re
import time
from fractions import Fraction
from math import comb

import pytest
from mpmath import mp, mpf

from filtropt import cardinal_counts, count_filters, nfm, nk, pr_exact, pr_report
from filtropt.likelihood import _ln_one_minus_pow2, ln_probability_parts
from filtropt.limits import EXACT_NK_BIT_CAP, MAX_DIGITS, MAX_REPORT_KL
from oracles import ln_one_minus_pow2_series


def test_nfm_examples():
    assert nfm(3, 2) == 49
    assert nfm(5, 2) == 29791
    assert nfm(4, 2) == 675  # 15 * 15 * 3 over cardinals {4, 4, 2}


@pytest.mark.parametrize("L", [3, 5, 7, 13])
def test_prime_length_collapse(L):
    k = (L + 1) // 2
    assert nfm(L, k) == ((1 << L) - 1) ** (nk(L, k) // L)


@pytest.mark.parametrize("entry", [nfm, pr_exact, ln_probability_parts, cardinal_counts, nk])
def test_analytic_entry_points_refuse_past_the_report_cap(entry):
    # each ran for longer than 10 s in the binomial sums before the cap moved
    # into cosets
    L, k = 10 ** 6, 5 * 10 ** 5
    assert k * L > MAX_REPORT_KL
    start = time.perf_counter()
    with pytest.raises(ValueError, match="report cap"):
        entry(L, k)
    assert time.perf_counter() - start < 1.0


def test_nfm_rejects_oversized_parameters():
    with pytest.raises(ValueError, match="log-domain"):
        nfm(257, 128)


def test_pr_exact_examples():
    assert pr_exact(3, 2) == Fraction(7, 8)
    assert pr_exact(5, 2) == Fraction(29791, 32736)
    for L in (3, 5, 8):
        assert pr_exact(L, 1) == 1


def test_pr_report_exact_small(ctx3):
    rep = pr_report(3, 2)
    assert rep.mode == "exact"
    assert rep.n_cosets == 2
    assert rep.nk_value == 6
    assert (rep.nfm, rep.nfk) == (49, 56)
    assert rep.pr_exact == Fraction(7, 8)
    assert abs(rep.pr_float - mpf(7) / 8) < mpf(10) ** -45
    # at these tiny parameters the exponential comparison value sits below pr
    assert rep.bound_general < rep.pr_float


def test_pr_report_l5_value_and_bound_overshoot():
    rep = pr_report(5, 2)
    assert rep.pr_exact == Fraction(29791, 32736)
    assert mp.nstr(rep.pr_float, 7) == "0.9100379"
    # exp(-x) > 1 - x: the closed-form comparison value overshoots the exact
    # probability here, so it is a proximity indicator rather than a bound
    assert rep.bound_general > rep.pr_float
    assert rep.pr_float > 0


def test_report_consistency_exact_vs_log_domain():
    for L, k in [(4, 2), (7, 3), (11, 4), (13, 7)]:
        rep = pr_report(L, k, digits=40)
        assert rep.mode == "exact"
        ratio = mpf(rep.pr_exact.numerator) / mpf(rep.pr_exact.denominator)
        assert abs(mp.exp(rep.ln_pr) - ratio) < abs(ratio) * mpf(10) ** -35


def test_log_domain_mode_for_large_parameters():
    rep = pr_report(31, 16)
    assert nk(31, 16) > EXACT_NK_BIT_CAP
    assert rep.mode == "log-domain"
    assert rep.nfm is None and rep.nfk is None and rep.pr_exact is None
    assert 0 < rep.pr_float < 1


def test_headline_parameters_report():
    rep = pr_report(257, 128, digits=60)
    assert rep.mode == "log-domain"
    assert rep.n_cosets == (2**256 - 1) // 257
    assert rep.nk_value == 2**256 - 1
    assert rep.pr_float > mpf("0.998")
    assert rep.bound_asymptotic is not None


def test_asymptotic_reporting_rules():
    assert pr_report(7, 3).bound_asymptotic is not None   # floor(L/2)
    assert pr_report(7, 4).bound_asymptotic is not None   # ceil(L/2)
    assert pr_report(7, 2).bound_asymptotic is None
    rep = pr_report(6, 3)
    with mp.workdps(45):
        assert abs(rep.bound_asymptotic - mp.exp(mpf(-1) / 12)) < mpf(10) ** -40


def test_ln_probability_parts_split():
    for L, k in [(3, 2), (5, 3), (7, 4)]:
        product_term, correction = ln_probability_parts(L, k, digits=40)
        assert correction > 0
        rep = pr_report(L, k, digits=40)
        with mp.workdps(50):
            assert abs((product_term + correction) - rep.ln_pr) < mpf(10) ** -35
            # the correction is exactly -ln(1 - 2^-C(L,k))
            want = -mp.log(1 - mp.ldexp(1, -comb(L, k)))
            assert abs(correction - want) < mpf(10) ** -40


@pytest.mark.parametrize("digits", [-50, 0, MAX_DIGITS + 1])
def test_both_precision_entry_points_refuse_digits_past_the_cap(digits):
    # ln_probability_parts(5, 2, digits=-50) gave a product term of -0.125,
    # where the true value is -0.0952
    for entry in (pr_report, ln_probability_parts):
        with pytest.raises(ValueError, match=re.escape(
                f"digits must lie in [1, {MAX_DIGITS}], got {digits}")):
            entry(5, 2, digits=digits)


def test_parameter_validation():
    with pytest.raises(ValueError):
        pr_report(5, 0)
    with pytest.raises(ValueError):
        pr_report(5, 6)
    with pytest.raises(ValueError):
        nfm(5, 0)


def test_counts_feed_the_formula():
    # nfm must be the product of (2^d - 1)^count over the cardinal histogram
    for L, k in [(4, 2), (6, 3), (12, 2)]:
        expect = 1
        for d, c in cardinal_counts(L, k).items():
            expect *= ((1 << d) - 1) ** c
        assert nfm(L, k) == expect
        assert count_filters(L, k) >= nfm(L, k)


def test_log_domain_report_sums_each_binomial_once(monkeypatch):
    # one sum per divisor of L for the cardinal counts, plus nk's own
    from filtropt import cosets

    calls = []
    real = cosets._binomial_sum
    monkeypatch.setattr(cosets, "_binomial_sum", lambda n, top: calls.append(n) or real(n, top))
    report = pr_report(1000, 500)
    assert report.mode == "log-domain"
    assert len(calls) <= len(cosets._divisors(1000)) + 1


@pytest.mark.parametrize("digits", [60, 10010])
def test_ln_one_minus_pow2_matches_series(digits):
    # both sides of the series' branch point at d = prec - 2, past the
    # precision, and far past any float or machine-word exponent
    with mp.workdps(digits):
        prec = mp.prec
        for d in (1, 2, prec - 2, prec, prec + 5, 10**6, 2**200):
            expected = ln_one_minus_pow2_series(d)
            got = _ln_one_minus_pow2(d)
            assert expected < 0
            assert abs(got - expected) <= mp.ldexp(abs(expected), 1 - prec), d
    with pytest.raises(ValueError):
        _ln_one_minus_pow2(0)
