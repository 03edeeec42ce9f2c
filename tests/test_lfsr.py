import pytest

from filtropt import context_for, min_period, trace_consistency, window_table
from filtropt.complexity import berlekamp_massey_packed, bits_to_int

from oracles import m_sequence_reference, reciprocal


def _bits(ctx, state=1):
    return (window_table(ctx, state) & 1).tolist()


def test_canonical_l3_sequence(ctx3):
    bits = _bits(ctx3)
    assert bits == [1, 0, 0, 1, 0, 1, 1]
    # the last window wraps: its bit 1 is a_7 = a_0
    assert window_table(ctx3)[-1] >> 1 & 1 == bits[0]


@pytest.mark.parametrize("L", [3, 5, 8, 11])
def test_minimal_period_is_full(L):
    ctx = context_for(L)
    assert min_period(_bits(ctx)) == ctx.order


def test_seeds_are_cyclic_shifts(ctx5):
    period = ctx5.order
    base = _bits(ctx5)
    rotations = {tuple(base[r:] + base[:r]) for r in range(period)}
    for seed in range(1, 1 << 5):
        assert tuple(_bits(ctx5, seed)) in rotations


def test_window_basics(ctx3):
    bits = _bits(ctx3)
    assert window_table(ctx3)[0] == sum(b << i for i, b in enumerate(bits[:3]))


@pytest.mark.parametrize("L", [3, 5, 8, 12])
def test_windows_enumerate_nonzero_vectors(L):
    ctx = context_for(L)
    wins = window_table(ctx)
    assert len(set(wins)) == ctx.order
    assert set(wins) == set(range(1, 1 << L))
    bits = _bits(ctx)
    for n in (0, 1, ctx.order - 1):
        assert wins[n] == sum(bits[(n + i) % ctx.order] << i for i in range(L))


def test_window_table_matches_recurrence():
    for L in (2, 3, 5, 8, 12):
        ctx = context_for(L)
        for state in (1, 3, (1 << L) - 1):
            wins = window_table(ctx, state)
            want = m_sequence_reference(ctx.modulus, L, state, ctx.order + L - 1)
            assert wins.tolist() == [sum(want[n + i] << i for i in range(L))
                                     for n in range(ctx.order)]
            assert not wins.flags.writeable


def test_zero_or_oversized_state_rejected(ctx3):
    for bad in (0, 1 << 3, -1, 1.0):
        with pytest.raises(ValueError, match="initial state"):
            window_table(ctx3, bad)


@pytest.mark.parametrize("L", range(2, 17))
def test_bm_recovers_register(L):
    ctx = context_for(L)
    z = bits_to_int(_bits(ctx))
    lc, poly = berlekamp_massey_packed(z | z << ctx.order, 2 * ctx.order)
    assert lc == L
    assert poly == reciprocal(ctx.modulus, L)


@pytest.mark.parametrize("L", range(2, 17))
def test_period_balance(L):
    bits = _bits(context_for(L))
    assert sum(bits) == 1 << (L - 1)
    assert len(bits) - sum(bits) == (1 << (L - 1)) - 1


def test_trace_consistency_small(ctx3):
    bits = _bits(ctx3)
    assert trace_consistency(ctx3, bits_to_int(bits)) is True
    # brute confirmation: some nonzero c matches the whole period
    matches = []
    for c in range(1, 8):
        v = c
        good = True
        for bit in bits:
            if ctx3.trace(v) != bit:
                good = False
                break
            v = ctx3.mul(v, ctx3.alpha)
        if good:
            matches.append(c)
    assert len(matches) == 1


def test_trace_consistency_rejects_zero_sequence(ctx3):
    assert trace_consistency(ctx3, 0) is False


@pytest.mark.parametrize("L", range(2, 17))
def test_trace_consistency_all_table_lengths(L):
    ctx = context_for(L)
    assert trace_consistency(ctx, bits_to_int(_bits(ctx))) is True


@pytest.mark.parametrize("L", [2, 3, 4, 7, 10])
def test_trace_consistency_every_phase_and_no_corruption(L):
    # every state is a phase of the one trace sequence; flipping any one bit
    # of a period, or sending a non-m-sequence, breaks the trace form
    ctx = context_for(L)
    for state in range(1, 1 << L) if L <= 4 else (1, 2, (1 << L) - 1):
        z = bits_to_int(_bits(ctx, state))
        assert trace_consistency(ctx, z) is True
        for n in range(0, ctx.order, max(1, ctx.order // 9)):
            assert trace_consistency(ctx, z ^ 1 << n) is False
    assert trace_consistency(ctx, (1 << ctx.order) - 1) is False
    with pytest.raises(ValueError):
        trace_consistency(ctx, 1 << ctx.order)
    with pytest.raises(ValueError):
        trace_consistency(ctx, -1)
