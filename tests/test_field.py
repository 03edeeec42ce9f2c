import pickle
import random
from itertools import chain, combinations
from math import gcd

import numpy as np
import pytest

from filtropt import FieldContext, context_for, window_table
from filtropt.field import DESK_MAX_L, PRIMITIVE, poly_gcd

from oracles import mulmod, powmod, x_has_full_order


MOD3 = 0b1011  # x^3 + x + 1, the embedded cubic


def test_add_is_xor(ctx3):
    # xor is the addition multiplication distributes over, in characteristic 2
    assert 0b011 ^ 0b010 == 1
    for a in range(8):
        assert mulmod(a, 1 ^ 1, MOD3) == 0
        for b in range(8):
            for c in range(8):
                assert (mulmod(a ^ b, c, MOD3)
                        == mulmod(a, c, MOD3) ^ mulmod(b, c, MOD3))


def test_mul_defining_relation(ctx3):
    # modulus x^3 + x + 1 forces x * x^2 = x + 1
    assert ctx3.modulus == MOD3
    assert mulmod(0b010, 0b100, MOD3) == 0b011
    for a in range(8):
        assert mulmod(a, 1, MOD3) == a
    exp, log = ctx3.exp_table, ctx3.log_table
    for a in range(1, 8):
        assert mulmod(a, powmod(a, ctx3.order - 1, MOD3), MOD3) == 1
        for b in range(1, 8):  # the tables multiply by adding logs
            assert exp[(log[a] + log[b]) % ctx3.order] == mulmod(a, b, MOD3)


def test_pow_basics(ctx3):
    alpha = 0b010
    assert powmod(alpha, 2**3 - 1, MOD3) == 1
    assert powmod(alpha, ctx3.order + 1, MOD3) == alpha
    assert powmod(0b010, 3, MOD3) == 0b011  # x^3 = x + 1
    for a in range(1, 8):
        assert powmod(a, 0, MOD3) == 1
        assert powmod(a, 2, MOD3) == mulmod(a, a, MOD3)
    assert powmod(0, 5, MOD3) == 0
    assert powmod(0, 0, MOD3) == 1
    for n in range(2 * ctx3.order):
        assert powmod(alpha, n, MOD3) == ctx3.exp_table[n % ctx3.order]


def test_frobenius_is_additive():
    rng = random.Random(102)
    for L in (5, 8, 13):
        ctx = context_for(L)
        exp, log = ctx.exp_table, ctx.log_table
        for _ in range(50):
            a = rng.randrange(1 << L)
            b = rng.randrange(1 << L)
            sq_a, sq_b = mulmod(a, a, ctx.modulus), mulmod(b, b, ctx.modulus)
            assert mulmod(a ^ b, a ^ b, ctx.modulus) == sq_a ^ sq_b
            if a:  # squaring doubles the log
                assert exp[2 * log[a] % ctx.order] == sq_a


@pytest.mark.parametrize("L", [4, 8, 12, 16])
def test_alpha_generates_all_nonzero(L):
    ctx = context_for(L)
    exp, log = ctx.exp_table, ctx.log_table
    assert exp.dtype == log.dtype == np.int64
    assert len(exp) == ctx.order and len(log) == 1 << L
    assert sorted(exp.tolist()) == list(range(1, 1 << L))
    assert (log[exp] == np.arange(ctx.order)).all()
    assert exp[1] == 2 and mulmod(int(exp[-1]), 2, ctx.modulus) == 1
    with pytest.raises(ValueError):
        exp[0] = 0  # shared read-only tables


def test_exp_log_tables_capped():
    # the tables are built only for a context, and contexts stop at the sequence cap
    for L in (DESK_MAX_L + 1, 21, 32, 257):
        with pytest.raises(ValueError, match=f"capped at 2 <= L <= {DESK_MAX_L}, got L={L}"):
            FieldContext(L, 1 << L | 0b11)
    with pytest.raises(ValueError, match="capped"):
        context_for(21)
    with pytest.raises(ValueError, match="got L=1 "):
        FieldContext(1, 0b11)


def test_field_context_surface(ctx3):
    public = {name for name in dir(ctx3) if not name.startswith("_")}
    assert public == {"L", "modulus", "order", "exp_table", "log_table"}


def test_is_primitive_examples():
    assert FieldContext(3, 0b1011).modulus == 0b1011
    # x^3 + x^2 + x + 1 is divisible by x + 1
    with pytest.raises(ValueError, match="not primitive"):
        FieldContext(3, 0b1111)
    # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5, not 15
    with pytest.raises(ValueError, match="not primitive"):
        FieldContext(4, 0b11111)
    assert powmod(2, 5, 0b11111) == 1


def test_is_primitive_validation_errors():
    with pytest.raises(ValueError, match="degree"):
        FieldContext(4, 0b1011)
    with pytest.raises(ValueError, match="degree"):
        FieldContext(3, -0b1011)
    # divisible by x: x has no order, so the modulus is refused before any step
    with pytest.raises(ValueError, match="not primitive"):
        FieldContext(3, 0b1010)


def test_field_context_requires_primitive():
    with pytest.raises(ValueError, match="not primitive"):
        FieldContext(4, 0b11111)


@pytest.mark.parametrize("L", range(2, 13))
def test_register_accepts_exactly_the_primitive_polynomials(L):
    # x has order 2^L - 1 for exactly phi(2^L - 1)/L polynomials of degree L
    accepted = set()
    for poly in range(1 << L, 2 << L):
        try:
            FieldContext(L, poly)
        except ValueError as exc:
            assert "not primitive" in str(exc)
        else:
            accepted.add(poly)
    assert accepted == {poly for poly in range(1 << L, 2 << L) if x_has_full_order(poly, L)}
    order = (1 << L) - 1
    assert len(accepted) == sum(gcd(i, order) == 1 for i in range(1, order + 1)) // L


def test_poly_helpers():
    assert poly_gcd(0b110, 0b10) == 0b10  # gcd(x^2+x, x) = x
    assert poly_gcd(0b1011, 0b111) == 1  # distinct irreducibles
    assert poly_gcd(0b1011 << 1, 0b1011) == 0b1011  # gcd(x(x^3+x+1), x^3+x+1)


def test_embedded_table_is_fully_primitive():
    assert sorted(PRIMITIVE) == list(range(2, DESK_MAX_L + 1))
    for L, poly in PRIMITIVE.items():
        assert x_has_full_order(poly, L)
        assert FieldContext(L, poly).modulus == poly
        assert context_for(L).modulus == poly


def test_table_is_first_primitive_in_search_order():
    # trinomials x^L + x^a + 1 by a, then pentanomials x^L + x^c + x^b + x^a + 1 by (a, b, c)
    for L in range(2, DESK_MAX_L + 1):
        top = 1 << L | 1
        trinomials = (top | 1 << a for a in range(1, L))
        pentanomials = (top | 1 << c | 1 << b | 1 << a
                        for a, b, c in combinations(range(1, L), 3))
        first = next(p for p in chain(trinomials, pentanomials) if x_has_full_order(p, L))
        assert PRIMITIVE[L] == first, (L, hex(first))


def test_context_for_unknown_length():
    for L in (DESK_MAX_L + 1, 40):
        with pytest.raises(ValueError, match="capped"):
            context_for(L)
        with pytest.raises(ValueError, match="capped"):
            context_for(L, 1 << L | 0b11)
    # x^5 + x^3 + 1 is primitive and is not the table's quintic
    assert PRIMITIVE[5] != 0x29 and context_for(5, 0x29).modulus == 0x29


def test_context_for_caches_and_compares():
    a = context_for(5)
    b = context_for(5)
    assert a is b
    assert a == FieldContext(5, a.modulus)
    assert hash(a) == hash(FieldContext(5, a.modulus))


def test_pickled_context_rebuilds_read_only_tables():
    # what a --jobs worker receives: the tables are rebuilt, not shipped writeable
    ctx = context_for(6)
    ctx.exp_table
    copy = pickle.loads(pickle.dumps(ctx))
    assert copy == ctx and copy is not ctx
    # every chunk a worker receives carries the context: it is built once per process
    assert pickle.loads(pickle.dumps(ctx)) is copy
    assert pickle.loads(pickle.dumps(copy)) is copy
    assert len(pickle.dumps(ctx)) < 200
    for table in (window_table(copy), window_table(copy, 5), copy.exp_table, copy.log_table):
        assert not table.flags.writeable
    assert window_table(copy).tolist() == window_table(ctx).tolist()
