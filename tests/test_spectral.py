import random

import pytest

from filtropt import (CyclotomicCoset, Spectrum, context_for, dft, enumerate_filters,
                      filter_sequence, lc_from_spectrum, linear_complexity_periodic,
                      min_period, parse_anf, period_from_spectrum, random_filter,
                      reconstruct_period, verify_subfield)
from filtropt.complexity import bits_to_int, min_period_packed
from filtropt.spectral import SpectralLine

from oracles import (coset_reference, poly_list_mulmod, powmod, reconstruct_reference,
                     trace_reference)


def _output(ctx, f):
    return filter_sequence(f, ctx)


def _coset(e, L):
    return CyclotomicCoset(*coset_reference(e, L))


def test_identity_filter_single_line(ctx3):
    spec = dft(bits_to_int(_output(ctx3, parse_anf("x0", 3))), ctx3)
    assert sorted(spec.lines) == [1]
    assert lc_from_spectrum(spec) == 3
    assert period_from_spectrum(spec) == 7


def test_zero_sequence_empty_spectrum(ctx3):
    spec = dft(0, ctx3)
    assert spec.lines == {}
    assert lc_from_spectrum(spec) == 0
    assert verify_subfield(spec) is True
    assert all(reconstruct_reference(spec, n) == 0 for n in range(7))
    assert reconstruct_period(spec) == 0
    with pytest.raises(ValueError, match="empty spectrum"):
        period_from_spectrum(spec)


def test_dft_wrong_length(ctx3):
    with pytest.raises(ValueError):
        dft(1 << 7, ctx3)
    with pytest.raises(ValueError):
        dft(-1, ctx3)


def test_degree_two_filter_lines(ctx3):
    spec = dft(bits_to_int(_output(ctx3, parse_anf("x0*x1", 3))), ctx3)
    assert set(spec.lines) <= {1, 3}


def test_full_degree_filter_hits_constant_coset(ctx3):
    z = _output(ctx3, parse_anf("x0*x1*x2", 3))
    assert sum(z) == 1  # the all-ones window appears exactly once per period
    spec = dft(bits_to_int(z), ctx3)
    assert set(spec.lines) == {1, 3, 7}
    assert lc_from_spectrum(spec) == 7 == linear_complexity_periodic(z)


def test_single_line_at_leader_one_is_trace_sequence(ctx3):
    coset = _coset(1, 3)
    spec = Spectrum(ctx3, {1: SpectralLine(coset, 1)})
    bits = [reconstruct_reference(spec, n) for n in range(7)]
    mod = [1, 1, 0, 1]  # x^3 + x + 1
    want = []
    v = [1, 0, 0]
    for _ in range(7):
        want.append(trace_reference(v, mod, 3))
        v = poly_list_mulmod(v, [0, 1], mod)
    assert bits == want


def test_round_trip_exhaustive_small(ctx3):
    for k in (1, 2, 3):
        for f in enumerate_filters(3, k):
            z = bits_to_int(_output(ctx3, f))
            spec = dft(z, ctx3)
            assert reconstruct_period(spec) == z
            assert verify_subfield(spec)
            assert max((line.coset.weight for line in spec.lines.values()), default=0) <= k


def test_round_trip_randomized_l8():
    ctx = context_for(8)
    rng = random.Random(88)
    for _ in range(25):
        f = random_filter(8, rng.choice((2, 3)), rng)
        z = _output(ctx, f)
        spec = dft(bits_to_int(z), ctx)
        assert reconstruct_period(spec) == bits_to_int(z)
        for n in (0, 1, 100, 254):
            assert reconstruct_reference(spec, n) == z[n]


def test_reconstruct_matches_bulk_path(ctx4):
    rng = random.Random(44)
    for _ in range(10):
        f = random_filter(4, 2, rng)
        spec = dft(bits_to_int(_output(ctx4, f)), ctx4)
        bits = [reconstruct_reference(spec, n) for n in range(15)]
        assert bits_to_int(bits) == reconstruct_period(spec)


def test_triangularity_exhaustive_l5_k2(ctx5):
    for f in enumerate_filters(5, 2):
        spec = dft(bits_to_int(_output(ctx5, f)), ctx5)
        assert all(line.coset.weight <= 2 for line in spec.lines.values())


def test_subfield_membership_violated_by_hand_built_line(ctx4):
    # coset {5, 10} has cardinal 2; alpha is not in GF(4), so alpha^(2^2) != alpha
    coset = _coset(5, 4)
    alpha = 0b10
    assert powmod(alpha, 1 << 2, ctx4.modulus) != alpha
    bad = Spectrum(ctx4, {5: SpectralLine(coset, alpha)})
    assert verify_subfield(bad) is False


def test_single_short_coset_line_has_short_period(ctx4):
    # a legitimate GF(4) coefficient on coset {5, 10}: alpha^5 satisfies c^4 = c
    c = powmod(0b10, 5, ctx4.modulus)
    spec = Spectrum(ctx4, {5: SpectralLine(_coset(5, 4), c)})
    assert verify_subfield(spec) is True
    assert period_from_spectrum(spec) == 3
    assert min_period_packed(reconstruct_period(spec), 15) == 3


def test_spectrum_rejects_zero_unreduced_or_misfiled_lines(ctx5):
    line = SpectralLine(_coset(1, 5), 1)
    assert Spectrum(ctx5, {1: line}).lines == {1: line}
    for bad in (0, 1 << 5, -3):  # absent means zero; coefficients are reduced elements
        with pytest.raises(ValueError, match="not a nonzero reduced element"):
            Spectrum(ctx5, {1: SpectralLine(_coset(1, 5), bad)})
    with pytest.raises(ValueError, match="coset led by 1"):
        Spectrum(ctx5, {2: SpectralLine(_coset(2, 5), 1)})
    with pytest.raises(ValueError, match="coset led by 3"):
        Spectrum(ctx5, {1: SpectralLine(_coset(3, 5), 1)})


def test_oracle_equivalence_sampled_l7(ctx7):
    rng = random.Random(777)
    for _ in range(60):
        f = random_filter(7, 3, rng)
        z = _output(ctx7, f)
        spec = dft(bits_to_int(z), ctx7)
        assert lc_from_spectrum(spec) == linear_complexity_periodic(z)
        assert period_from_spectrum(spec) == min_period(z)
        assert verify_subfield(spec)
        assert reconstruct_period(spec) == bits_to_int(z)
