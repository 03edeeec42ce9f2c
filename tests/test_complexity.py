import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filtropt import (context_for, count_filters, enumerate_filters,
                      linear_complexity_periodic, min_period, random_filter, window_table)
from filtropt.complexity import (berlekamp_massey_packed, bits_to_int, min_period_packed,
                                 min_period_words, periodic_lc_packed, periodic_lc_words)
from filtropt.experiment import _SequenceLab
from filtropt.limits import ENUMERATION_CAP

from oracles import (berlekamp_massey_reference, brute_force_lfsr_length, lfsr_replays,
                     naive_min_period, reciprocal)


def _bm(bits):
    return berlekamp_massey_packed(bits_to_int(bits), len(bits))


def _m_sequence(ctx):
    return (window_table(ctx) & 1).tolist()


def test_bm_zero_sequence():
    assert _bm([0] * 12) == (0, 1)
    assert _bm([])[0] == 0


def test_bm_alternating():
    bits = [1, 0] * 8
    lc, poly = _bm(bits)
    assert lc == 2
    assert brute_force_lfsr_length(bits) == 2
    assert lfsr_replays(bits, lc, poly)


def test_bm_m_sequence(ctx3):
    bits = _m_sequence(ctx3) * 2
    lc, poly = _bm(bits)
    assert lc == 3
    assert poly == reciprocal(ctx3.modulus, 3)
    assert brute_force_lfsr_length(bits) == 3


def test_bm_leading_zeros():
    assert _bm([0, 0, 1])[0] == 3
    assert brute_force_lfsr_length([0, 0, 1]) == 3


def test_bm_matches_brute_force_randomized():
    rng = random.Random(404)
    for _ in range(100):
        n = rng.randrange(1, 41)
        bits = [rng.getrandbits(1) for _ in range(n)]
        lc, poly = _bm(bits)
        assert lc == brute_force_lfsr_length(bits)
        assert lfsr_replays(bits, lc, poly)


def test_bm_packed_agrees_with_list_form():
    rng = random.Random(405)
    for _ in range(50):
        n = rng.randrange(1, 60)
        bits = [rng.getrandbits(1) for _ in range(n)]
        assert _bm(bits) == berlekamp_massey_reference(bits)


def test_periodic_lc_m_sequence(ctx5):
    bits = _m_sequence(ctx5)
    assert linear_complexity_periodic(bits) == 5
    assert periodic_lc_packed(bits_to_int(bits), len(bits)) == 5


def test_periodic_lc_all_ones():
    assert linear_complexity_periodic([1] * 9) == 1


def test_periodic_lc_empty_rejected():
    with pytest.raises(ValueError):
        linear_complexity_periodic([])


def test_periodic_lc_cross_module(ctx3):
    # order-2 filter output: complexity is at most nk(3,2) = 6, and exactly 6
    # iff both weight-<=2 cosets carry a nonzero coefficient
    from filtropt import dft, filter_sequence, lc_from_spectrum, parse_anf

    z = filter_sequence(parse_anf("x0 + x0*x1", 3), ctx3)
    lc = linear_complexity_periodic(z)
    assert 1 <= lc <= 6
    spec = dft(bits_to_int(z), ctx3)
    assert lc == lc_from_spectrum(spec)
    assert (lc == 6) == (set(spec.lines) == {1, 3})


def test_min_period_examples():
    assert min_period([1] * 6) == 1
    assert min_period([1, 0, 1, 1, 0, 1]) == 3
    for L in (3, 5, 8):
        bits = _m_sequence(context_for(L))
        assert min_period(bits) == (1 << L) - 1
    with pytest.raises(ValueError):
        min_period([])


def test_min_period_matches_naive():
    rng = random.Random(406)
    for _ in range(100):
        d = rng.randrange(1, 7)
        reps = rng.randrange(1, 5) * 2
        block = [rng.getrandbits(1) for _ in range(d)]
        bits = block * reps
        assert min_period(bits) == naive_min_period(bits)
        assert min_period_packed(bits_to_int(bits), len(bits)) == naive_min_period(bits)


def test_minimal_poly_degree_tracks_lc_when_oldest_tap_used():
    # m-sequences always use their oldest tap; degenerate prefixes may not
    lc, poly = _bm(_m_sequence(context_for(4)) * 2)
    assert poly.bit_length() - 1 == lc


@pytest.mark.parametrize("measure", [periodic_lc_packed, min_period_packed])
@pytest.mark.parametrize("z, period", [(7, 0), (0, 0), (1, -3), (-5, 3), (0b1111, 2)])
def test_packed_measurements_reject_bad_period(measure, z, period):
    with pytest.raises(ValueError):
        measure(z, period)


def _bits(z, n):
    return [z >> i & 1 for i in range(n)]


def _assert_packed_match_oracles(z, n):
    bits = _bits(z, n)
    assert periodic_lc_packed(z, n) == linear_complexity_periodic(bits)
    assert min_period_packed(z, n) == naive_min_period(bits)


# Lengths up to 1100 span one to eighteen 64-bit words of the period and
# include 2^L - 1 (L <= 10) as well as lengths of every other shape.
_lengths = st.integers(1, 1100)


@given(st.data(), _lengths)
def test_packed_match_oracles_on_random_strings(data, n):
    # lc near n: the gcd has low degree and Euclid runs its longest remainder chain
    _assert_packed_match_oracles(data.draw(st.integers(0, (1 << n) - 1)), n)


@given(st.data(), _lengths, st.randoms(use_true_random=False))
def test_packed_match_oracles_on_short_periods(data, n, rng):
    # every divisor d of n, optionally with one bit flipped: a period-d
    # repeat shares the factor (x^n - 1) / (x^d - 1) with x^n - 1, so its
    # gcd has high degree, and the flip perturbs it into a near miss
    flip = data.draw(st.none() | st.integers(0, n - 1))
    for d in (d for d in range(1, n + 1) if n % d == 0):
        block = rng.getrandbits(d)
        z = sum(block << s for s in range(0, n, d))
        if flip is not None:
            z ^= 1 << flip
        _assert_packed_match_oracles(z, n)


@pytest.mark.parametrize("n", [1, 2, 7, 128, 129, 255, 600, 1023, 1100])
def test_packed_match_oracles_on_constant_and_single_one(n):
    for z in (0, (1 << n) - 1, 1, 1 << (n - 1), 1 << (n // 2)):
        _assert_packed_match_oracles(z, n)


@given(st.integers(6, 10), st.integers(1, 5), st.randoms(use_true_random=False))
def test_periodic_lc_packed_matches_full_bm_on_filter_outputs(L, k, rng):
    ctx = context_for(L)
    lab = _SequenceLab(ctx)
    z = lab.filter_period_packed(random_filter(L, k, rng))
    assert periodic_lc_packed(z, ctx.order) == linear_complexity_periodic(_bits(z, ctx.order))


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
def test_packed_match_oracles_at_word_boundaries(n):
    # periods of a whole number of 64-bit words, and one bit either side,
    # with the top bit set so the period's top word is never empty
    rng = random.Random(n)
    top = 1 << (n - 1)
    for _ in range(20):
        _assert_packed_match_oracles(rng.getrandbits(n) | top, n)
    for d in (1, 3, 7):  # low-complexity repeats cut to n bits, top bit set
        block = rng.getrandbits(d) | 1
        z = sum(block << s for s in range(0, n, d)) & ((1 << n) - 1)
        _assert_packed_match_oracles(z | top, n)


@pytest.mark.parametrize("n", range(1, 9))
def test_packed_match_oracles_exhaustive_short_periods(n):
    for z in range(1 << n):
        _assert_packed_match_oracles(z, n)


def test_packed_match_oracles_exhaustive_period_15():
    for z in range(1 << 15):
        _assert_packed_match_oracles(z, 15)


# --- word kernels: many periods of at most 63 bits, one uint64 lane each ---

def _assert_words_match_scalar(zs, n):
    z = np.array(zs, np.uint64)
    lcs, periods = periodic_lc_words(z, n), min_period_words(z, n)
    assert lcs.dtype == periods.dtype == np.int64
    assert lcs.tolist() == [periodic_lc_packed(v, n) for v in zs]
    assert periods.tolist() == [min_period_packed(v, n) for v in zs]


@pytest.mark.parametrize("L, k", [(L, k) for L in range(2, 6) for k in range(1, L + 1)
                                  if count_filters(L, k) <= ENUMERATION_CAP])
def test_words_match_scalar_on_every_census_filter(L, k):
    lab = _SequenceLab(context_for(L))
    zs = [lab.filter_period_packed(f) for f in enumerate_filters(L, k)]
    _assert_words_match_scalar(zs, lab.period)


def test_words_match_scalar_on_sampled_l6_filters():
    lab = _SequenceLab(context_for(6))
    rng = random.Random(606)
    _assert_words_match_scalar([lab.filter_period_packed(random_filter(6, 2, rng))
                                for _ in range(3000)], 63)


def test_words_match_scalar_on_n63_edge_words():
    n = 63
    ones = (1 << n) - 1
    zs = [0, ones, 1, 1 << (n - 1), ones ^ 1, ones ^ (1 << (n - 1))]
    rng = random.Random(63)
    for d in (d for d in range(1, n + 1) if n % d == 0):
        for block in (1, (1 << d) - 1, rng.getrandbits(d)):
            z = sum(block << s for s in range(0, n, d))
            zs += [z] + [z ^ 1 << rng.randrange(n) for _ in range(3)]
    _assert_words_match_scalar(zs, n)


@pytest.mark.parametrize("n", range(1, 64))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_words_match_list_oracles(n, data):
    zs = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
    z = np.array(zs, np.uint64)
    lcs, periods = periodic_lc_words(z, n), min_period_words(z, n)
    for v, lc, period in zip(zs, lcs.tolist(), periods.tolist()):
        bits = _bits(v, n)
        assert lc == berlekamp_massey_reference(bits * 2)[0]
        assert period == naive_min_period(bits)


@pytest.mark.parametrize("measure", [periodic_lc_words, min_period_words])
@pytest.mark.parametrize("z, period", [
    (np.zeros(3, np.uint64), 0),
    (np.zeros(3, np.uint64), 64),
    (np.zeros(3, np.int64), 5),
    (np.zeros((2, 2), np.uint64), 5),
    ([1, 2], 5),
    (np.array([1, 32], np.uint64), 5),
])
def test_words_reject_bad_lanes(measure, z, period):
    with pytest.raises(ValueError):
        measure(z, period)
