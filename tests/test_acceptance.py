"""Acceptance suite: one verification per numbered requirement.

Two assertions are implemented exactly as required even though the math
cannot hold: the exponential comparison value exp(-nk/(2^L L)) always sits
strictly ABOVE the product bound prod(1 - 2^-cardinal) because
exp(-x) > 1 - x, and for most parameters above the exact probability too.
Those two tests fail and are kept red on purpose rather than weakened;
everything else must pass.  README.md carries the full analysis.
"""
import random
import time
from fractions import Fraction
from math import comb

import pytest
from mpmath import mp, mpf

from filtropt import (context_for, dft, lc_from_spectrum, linear_complexity_periodic,
                      min_period, nfm, nk, period_from_spectrum, pr_exact, pr_report,
                      random_filter, reconstruct_period, run_exhaustive,
                      run_monte_carlo, verify_subfield, window_table)
from filtropt.complexity import berlekamp_massey_packed, bits_to_int
from filtropt.experiment import _SequenceLab
from filtropt.likelihood import ln_probability_parts

from oracles import brute_force_lfsr_length, reconstruct_reference

MC_SEED = 1998          # fixed up front; never tuned to outcomes
BRUTE_SEED = 8248
PRIMES_IN_TABLE = [L for L in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
                               61, 89, 107, 127, 257]]


def _timed_census(L, k):
    t0 = time.perf_counter()
    summary = run_exhaustive(L, k)
    return summary, time.perf_counter() - t0


@pytest.fixture(scope="module")
def census3():
    return _timed_census(3, 2)


@pytest.fixture(scope="module")
def census4():
    return _timed_census(4, 2)


@pytest.fixture(scope="module")
def census5():
    return _timed_census(5, 2)


@pytest.fixture(scope="module")
def mc7():
    t0 = time.perf_counter()
    summary = run_monte_carlo(7, 3, 20000, MC_SEED)
    return summary, time.perf_counter() - t0


def test_criterion_1_exhaustive_census_l3(census3):
    summary, elapsed = census3
    assert summary.trials == 56
    assert summary.hits_max_lc == 49
    assert summary.max_lc_target == 6
    assert Fraction(summary.hits_max_lc, summary.trials) == pr_exact(3, 2) == Fraction(7, 8)
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS  L=3 k=2 census 56 filters, 49 at lc=6, "
          f"Pr=7/8 exact ({elapsed:.3f}s)")


def test_criterion_2_exhaustive_census_l5(census5):
    summary, elapsed = census5
    assert summary.trials == 32736
    assert summary.hits_max_lc == 29791 == nfm(5, 2)
    assert summary.max_lc_target == 15 == nk(5, 2)
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2: PASS  L=5 k=2 census 32736 filters, 29791 at lc=15 "
          f"({elapsed:.2f}s)")


def test_criterion_3_exhaustive_census_l4_non_prime(census4):
    summary, elapsed = census4
    assert summary.trials == 1008
    assert summary.hits_max_lc == 675 == nfm(4, 2)
    assert 675 == 15 * 15 * 3
    print(f"\nACCEPTANCE 3: PASS  L=4 k=2 census 1008 filters, 675 at lc=10 "
          f"({elapsed:.2f}s)")


def test_criterion_4_max_lc_implies_max_period(census3, census4, census5):
    checked = 0
    for (summary, _), L in ((census3, 3), (census4, 4), (census5, 5)):
        period = (1 << L) - 1
        for (lc, per), count in summary.histogram.items():
            if lc == summary.max_lc_target:
                assert per == period, (L, lc, per)
                checked += count
    assert checked == 49 + 675 + 29791
    print(f"\nACCEPTANCE 4: PASS  all {checked} max-lc filters have period 2^L - 1")


def test_criterion_5_monte_carlo_within_3_sigma(mc7):
    summary, elapsed = mc7
    assert summary.trials == 20000
    assert summary.analytic_pr == pytest.approx(float(pr_exact(7, 3)), abs=1e-12)
    assert abs(summary.z_score) <= 3.0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 5: PASS  L=7 k=3 MC 20000 trials seed={MC_SEED}: "
          f"emp={summary.empirical_pr:.6f} z={summary.z_score:+.3f} ({elapsed:.2f}s)")


def test_criterion_5_literal_bound_clause(mc7):
    # Stated as: empirical Pr > exp(-nk/(2^L L)).  That closed form exceeds
    # the exact probability at (7,3) (0.93210 > 0.93185), so with an honest
    # pre-registered seed this is near a coin flip around a false premise;
    # kept faithful instead of weakened.
    summary, _ = mc7
    bound_general = float(pr_report(7, 3).bound_general)
    assert summary.empirical_pr > bound_general, (
        f"empirical {summary.empirical_pr:.6f} vs exp(-nk/(2^L L)) = "
        f"{bound_general:.6f}; the exact probability {summary.analytic_pr:.6f} "
        f"already lies below that value, so the stated clause asserts an "
        f"inequality that is false in expectation")


def test_criterion_6_headline_l257():
    t0 = time.perf_counter()
    rep = pr_report(257, 128, digits=60)
    elapsed = time.perf_counter() - t0
    assert rep.mode == "log-domain"
    assert rep.pr_float > mpf("0.998")
    assert abs(rep.bound_asymptotic - mpf("0.998057")) <= mpf("1e-6")
    with mp.workdps(70):
        ln_bound = mp.log(rep.bound_general)
        rel = abs((rep.ln_pr - ln_bound) / ln_bound)
        agree_digits = float(-mp.log10(rel)) if rel > 0 else float("inf")
    assert agree_digits >= 30
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 6: PASS  pr_float={mp.nstr(rep.pr_float, 12)} > 0.998, "
          f"e^(-1/514)={mp.nstr(rep.bound_asymptotic, 12)}, ln paths agree to "
          f"{agree_digits:.0f} digits ({elapsed:.3f}s)")


@pytest.mark.parametrize("L,k", [(5, 2), (7, 3), (11, 3)])
def test_criterion_7_oracle_equivalence(L, k):
    ctx = context_for(L)
    lab = _SequenceLab(ctx)
    period = ctx.order
    rng = random.Random(7000 + L)
    spot = random.Random(7100 + L)
    for _ in range(200):
        f = random_filter(L, k, rng)
        packed = lab.filter_period_packed(f)
        z = [(packed >> n) & 1 for n in range(period)]
        spec = dft(packed, ctx)
        assert lc_from_spectrum(spec) == linear_complexity_periodic(z)
        assert period_from_spectrum(spec) == min_period(z)
        assert verify_subfield(spec)
        assert reconstruct_period(spec) == packed
        n = spot.randrange(period)
        assert reconstruct_reference(spec, n) == z[n]
    print(f"\nACCEPTANCE 7: PASS  L={L} k={k}: 200/200 filters, BM == spectral lc, "
          f"min_period == spectral period, subfield and round-trip exact")


def test_criterion_8_bm_vs_brute_force():
    rng = random.Random(BRUTE_SEED)
    t0 = time.perf_counter()
    max_lc = 0
    for _ in range(500):
        n = rng.randrange(1, 49)
        bits = [rng.getrandbits(1) for _ in range(n)]
        got = berlekamp_massey_packed(bits_to_int(bits), n)[0]
        assert got == brute_force_lfsr_length(bits), bits
        max_lc = max(max_lc, got)
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 8: PASS  500/500 random strings (len <= 48, max lc "
          f"{max_lc}) match the exhaustive shortest-LFSR search ({elapsed:.1f}s)")


def test_criterion_9_pr_exceeds_product_bound():
    # pr/product-bound = 1/(1 - 2^-C(L,k)) > 1; the separation term is
    # computed explicitly so strictness survives even when it is far below
    # the 40-digit working precision of a naive subtraction.
    for L in PRIMES_IN_TABLE:
        k = (L + 1) // 2
        product_term, correction = ln_probability_parts(L, k, digits=40)
        assert correction > 0, (L, k)
        if comb(L, k) <= 100:  # gap visible numerically at 40 digits
            with mp.workdps(40):
                assert mp.exp(product_term + correction) > mp.exp(product_term)
    print("\nACCEPTANCE 9a: PASS  pr > (1 - 2^-L)^(nk/L) strictly for all "
          "embedded primes up to 257 (separation term positive at 40 digits)")


def test_criterion_9_product_bound_vs_exponential_form():
    # Stated as: (1 - 2^-L)^(nk/L) > exp(-nk/(2^L L)) at 30+ digits.  Since
    # ln(1 - x) < -x for every x in (0, 1), the true ordering is the exact
    # reverse at every single parameter; implemented faithfully and left
    # red on purpose.
    violations = []
    for L in PRIMES_IN_TABLE:
        k = (L + 1) // 2
        product_term, _ = ln_probability_parts(L, k, digits=40)
        with mp.workdps(50):
            ln_exponential = -mpf(nk(L, k)) / (mp.ldexp(1, L) * L)
            if not product_term > ln_exponential:
                violations.append(
                    f"L={L}: ln product bound {mp.nstr(product_term, 25)} <= "
                    f"ln exponential form {mp.nstr(ln_exponential, 25)}")
    assert not violations, (
        "the exponential form exceeds the product bound at every prime "
        "(exp(-x) > 1 - x), so the stated chain direction cannot hold:\n"
        + "\n".join(violations))


def test_criterion_9_asymptotic_strictly_increasing():
    values = []
    with mp.workdps(40):
        for L in [*range(2, 33), 61, 89, 107, 127, 257]:
            values.append(mp.exp(mpf(-1) / (2 * L)))
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > mpf("0.998")
    print("\nACCEPTANCE 9c: PASS  e^(-1/(2L)) strictly increasing across "
          "L = 2..32, 61, 89, 107, 127, 257 (tends to 1)")


def test_packed_bm_agrees_on_acceptance_scale():
    # guards the packed fast path used by the censuses above
    bits = (window_table(context_for(5)) & 1).tolist()
    packed = sum(b << i for i, b in enumerate(bits))
    assert berlekamp_massey_packed(packed | packed << 31, 62)[0] == 5
