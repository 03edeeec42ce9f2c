import json
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from filtropt import (FilterFunction, count_filters, enumerate_filters, evaluate,
                      filter_sequence, format_anf, parse_anf, random_filter,
                      run_exhaustive, window_table)
from filtropt.anf import (AnfParseError, _decode_selector, filter_from_monomial_lists,
                          selectable_masks)
from filtropt.complexity import berlekamp_massey_packed, bits_to_int

from oracles import format_anf_reference, sorted_tap_lists


def F(L, *monomials):
    return filter_from_monomial_lists(L, [list(m) for m in monomials])


def test_evaluate_examples():
    assert evaluate(F(3, (0,)), 0b101) == 1
    assert evaluate(F(3, (0, 1)), 0b001) == 0
    assert evaluate(F(2, (0,), (0, 1)), 0b11) == 0


def test_evaluate_rejects_bad_window():
    with pytest.raises(ValueError):
        evaluate(F(3, (0,)), -1)
    with pytest.raises(ValueError):
        evaluate(F(3, (0,)), 0b1000)


def test_invariants_enforced():
    with pytest.raises(ValueError):
        FilterFunction(3, ())
    with pytest.raises(ValueError):
        FilterFunction(3, (0,))
    with pytest.raises(ValueError):
        FilterFunction(3, (0b1001,))
    with pytest.raises(ValueError):
        FilterFunction(3, (0b10, 0b01))
    with pytest.raises(ValueError):
        FilterFunction(3, (0b01, 0b01))


def test_order_is_max_monomial_size():
    assert F(5, (0,), (1, 3)).k == 2
    assert F(5, (0, 1, 2)).k == 3


def test_identity_filter_reproduces_sequence(ctx3):
    assert filter_sequence(F(3, (0,)), ctx3) == (window_table(ctx3) & 1).tolist()


def test_identity_filter_lc(ctx5):
    z = bits_to_int(filter_sequence(F(5, (0,)), ctx5))
    assert berlekamp_massey_packed(z | z << ctx5.order, 2 * ctx5.order)[0] == 5


def test_filter_sequence_periodicity(ctx4):
    # starting from the state after n clocks rotates the output by n
    f = F(4, (0, 2), (1,))
    z = filter_sequence(f, ctx4)
    for n in range(ctx4.order):
        state = int(window_table(ctx4)[n])
        assert filter_sequence(f, ctx4, state) == z[n:] + z[:n]


def test_filter_sequence_dimension_mismatch(ctx3):
    with pytest.raises(ValueError):
        filter_sequence(F(4, (0,)), ctx3)


def test_count_filters_examples():
    assert count_filters(3, 2) == 56
    assert count_filters(5, 2) == 32736
    for L in (3, 6, 9):
        assert count_filters(L, 1) == (1 << L) - 1
    with pytest.raises(ValueError):
        count_filters(4, 5)
    with pytest.raises(ValueError):
        count_filters(4, 0)


# (5,3) and above are excluded: their spaces (2^25 filters up) exceed the
# enumeration cap, which is exactly what the cap is for
@pytest.mark.parametrize("L,k", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
                                 (4, 2), (4, 3), (4, 4), (5, 1), (5, 2)])
def test_enumeration_matches_count_and_is_duplicate_free(L, k):
    seen = set()
    for f in enumerate_filters(L, k):
        assert f.k == k
        seen.add(f.masks)
    assert len(seen) == count_filters(L, k)


def test_enumeration_l2_k1_explicit():
    got = sorted(format_anf(f) for f in enumerate_filters(2, 1))
    assert got == ["x0", "x0 + x1", "x1"]


@pytest.mark.parametrize("L,k", [(4, 2), (3, 3)])
def test_enumeration_follows_index_layout(L, k):
    # index = (degree-k subset - 1) * 2^n_low + lower-degree subset, each
    # subset a bitmask over combinations() order, lower degrees degree-major
    top = list(combinations(range(L), k))
    low = [m for d in range(1, k) for m in combinations(range(L), d)]
    expected = []
    for top_bits in range(1, 1 << len(top)):
        for low_bits in range(1 << len(low)):
            monos = [m for i, m in enumerate(top) if top_bits >> i & 1]
            monos += [m for i, m in enumerate(low) if low_bits >> i & 1]
            expected.append(F(L, *monos))
    assert list(enumerate_filters(L, k)) == expected


def test_enumeration_range_splitting():
    total = count_filters(4, 2)
    whole = [f.masks for f in enumerate_filters(4, 2)]
    split = [f.masks for f in enumerate_filters(4, 2, 0, total // 3)]
    split += [f.masks for f in enumerate_filters(4, 2, total // 3, total)]
    assert whole == split


def test_enumeration_cap_refusal():
    # (5, 3) has 1023 * 2^15 = 33.5M filters, just over the 2^24 cap; the
    # census refuses with the same message as the enumeration
    assert count_filters(5, 3) == 1023 << 15
    for L, k in [(16, 8), (5, 3)]:
        with pytest.raises(ValueError, match="cap of 16777216") as refused:
            list(enumerate_filters(L, k))
        with pytest.raises(ValueError, match="cap of 16777216") as census:
            run_exhaustive(L, k)
        assert str(refused.value) == str(census.value)


def test_random_filter_invariants_and_determinism():
    f1 = random_filter(6, 3, random.Random(55))
    f2 = random_filter(6, 3, random.Random(55))
    assert f1 == f2
    assert f1.k == 3
    rng = random.Random(56)
    for _ in range(100):
        assert random_filter(6, 3, rng).k == 3


# draws captured while filters were still stored as tap tuples; a change here
# changes every Monte Carlo record
@pytest.mark.parametrize("L,k,seed,text", [
    (4, 2, 0, "x1 + x2 + x0*x1 + x0*x2 + x0*x3 + x1*x3 + x2*x3"),
    (5, 3, 7, "x0 + x1 + x4 + x0*x2 + x0*x4 + x1*x4 + x2*x3 + x2*x4 + x3*x4"
              " + x0*x1*x4 + x0*x2*x3 + x1*x2*x3 + x1*x3*x4"),
    (6, 1, 11, "x0 + x2 + x3 + x4"),
    (8, 2, 5, "x0 + x6 + x0*x1 + x0*x3 + x0*x7 + x1*x2 + x1*x3 + x1*x4 + x1*x5"
              " + x2*x3 + x2*x4 + x2*x6 + x2*x7 + x3*x4 + x3*x6 + x3*x7 + x4*x5"
              " + x4*x6 + x4*x7 + x6*x7"),
])
def test_random_filter_draws_are_pinned(L, k, seed, text):
    assert format_anf(random_filter(L, k, random.Random(seed))) == text


@pytest.mark.parametrize("L,k", [(4, 2), (7, 3), (13, 7)])
@given(data=st.data())
def test_decode_matches_shift_decode(L, k, data):
    pool, _ = selectable_masks(L, k)
    selector = data.draw(st.integers(0, (1 << len(pool)) - 1))
    assert _decode_selector(pool, selector) == tuple(m for m, bit in pool if selector >> bit & 1)


def test_random_filter_uniform_over_space():
    # 56000 draws over the 56 functions at (3,2): each lands 1000 +- 5 sigma
    rng = random.Random(20000)
    counts = {}
    for _ in range(56000):
        f = random_filter(3, 2, rng)
        counts[f.masks] = counts.get(f.masks, 0) + 1
    assert len(counts) == 56
    sigma = math.sqrt(56000 * (1 / 56) * (55 / 56))
    for c in counts.values():
        assert abs(c - 1000) <= 5 * sigma


def test_xor_linearity_in_monomial_set():
    rng = random.Random(77)
    for _ in range(50):
        fa = random_filter(6, 3, rng)
        fb = random_filter(6, 2, rng)
        sym = set(fa.masks) ^ set(fb.masks)
        if not sym:
            continue
        fc = FilterFunction(6, tuple(sorted(sym)))
        w = rng.randrange(1 << 6)
        assert evaluate(fc, w) == evaluate(fa, w) ^ evaluate(fb, w)


def test_parse_anf_basics():
    f = parse_anf("x0 + x1*x3", 5)
    assert f.masks == (0b0001, 0b1010)
    assert f.k == 2
    assert parse_anf(" x2 * x0 ", 3).masks == (0b101,)


def test_parse_anf_distinct_errors():
    with pytest.raises(AnfParseError, match="empty filter"):
        parse_anf("   ", 3)
    with pytest.raises(AnfParseError, match="constant term"):
        parse_anf("1", 3)
    with pytest.raises(AnfParseError, match="duplicate tap"):
        parse_anf("x0*x0", 3)
    with pytest.raises(AnfParseError, match="duplicate monomial"):
        parse_anf("x0*x1 + x1*x0", 3)
    with pytest.raises(AnfParseError, match="out of range"):
        parse_anf("x5", 3)
    with pytest.raises(AnfParseError, match="bad tap"):
        parse_anf("x0 + y1", 3)


def test_format_parse_round_trip():
    rng = random.Random(99)
    for _ in range(50):
        f = random_filter(6, 3, rng)
        assert parse_anf(format_anf(f), 6) == f


def test_format_is_canonical():
    f = parse_anf("x2*x1 + x0", 4)
    assert format_anf(f) == "x0 + x1*x2"


def test_json_monomial_lists_round_trip():
    f = parse_anf("x0 + x1*x3", 5)
    lists = sorted_tap_lists(f.masks)
    assert lists == [[0], [1, 3]]
    assert filter_from_monomial_lists(5, lists) == f


def test_monomial_lists_reject_bad_taps():
    for bad, needle in [([[0], [0], [1]], "duplicate monomial"),
                        ([[1, 0], [0, 1]], "duplicate monomial"),
                        ([[0, 0]], "duplicate tap"),
                        ([[0, 1.5]], "not an integer"),
                        ([["a"]], "not an integer"),
                        ([[True], [2]], "not an integer"),
                        ([1], "not a list"),
                        ([[3]], "out of range"),
                        ([[-1]], "out of range"),
                        ([[]], "constant term")]:
        with pytest.raises(AnfParseError, match=needle):
            filter_from_monomial_lists(3, bad)
    with pytest.raises(ValueError, match="at least one monomial"):
        filter_from_monomial_lists(3, [])


@st.composite
def filters(draw):
    L = draw(st.integers(1, 8))
    masks = draw(st.sets(st.integers(1, (1 << L) - 1), min_size=1, max_size=12))
    return FilterFunction(L, tuple(sorted(masks)))


@given(filters(), st.randoms(use_true_random=False))
def test_text_and_json_round_trips_ignore_order(f, rng):
    assert parse_anf(format_anf(f), f.L) == f
    lists = json.loads(json.dumps(sorted_tap_lists(f.masks)))
    assert filter_from_monomial_lists(f.L, lists) == f
    for taps in lists:
        rng.shuffle(taps)
    rng.shuffle(lists)
    assert filter_from_monomial_lists(f.L, lists) == f
    text = " + ".join("*".join(f"x{t}" for t in taps) for taps in lists)
    assert parse_anf(text, f.L) == f


@given(filters())
def test_format_anf_matches_reference(f):
    assert format_anf(f) == format_anf_reference(f.masks)


@pytest.mark.parametrize("seed", range(5))
def test_format_anf_matches_reference_on_dense_draws(seed):
    # about 2900 monomials of sizes 1..7 in each L=13 k=7 draw
    f = random_filter(13, 7, random.Random(seed))
    assert format_anf(f) == format_anf_reference(f.masks)
