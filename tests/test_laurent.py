import random

import pytest
from hypothesis import given, settings, strategies as st

from qlzero.laurent import (
    LaurentPoly,
    lp_divided_difference,
    lp_scale,
    lp_specialize,
    lp_swap,
)
from qlzero.scalars import QQ_ONE, qpow, qq_int


def rand_poly(rng, arity=2, terms=4, span=3):
    out = LaurentPoly.zero(arity)
    for _ in range(terms):
        e = tuple(rng.randrange(-span, span + 1) for _ in range(arity))
        c = qq_int(rng.randrange(-5, 6)) * qpow(rng.randrange(-2, 3))
        out = out + LaurentPoly.monomial(arity, e, c)
    return out


def test_cancelled_terms_are_not_stored():
    z1, z2 = LaurentPoly.var(2, 1), LaurentPoly.var(2, 2)
    prod = (z1 - z2) * (z1 + z2)
    assert prod.terms == {(2, 0): QQ_ONE, (0, 2): qq_int(-1)}
    assert not (prod - prod).terms


def test_swap_examples():
    f = LaurentPoly.monomial(2, (2, -1))
    assert lp_swap(f, 1, 2) == LaurentPoly.monomial(2, (-1, 2))
    assert lp_swap(LaurentPoly.one(2), 1, 2) == LaurentPoly.one(2)


def test_swap_involution_random():
    rng = random.Random(0)
    for _ in range(50):
        f = rand_poly(rng, arity=3)
        assert lp_swap(lp_swap(f, 1, 3), 1, 3) == f


def test_swap_index_errors():
    with pytest.raises(IndexError):
        lp_swap(LaurentPoly.one(2), 1, 3)
    with pytest.raises(IndexError):
        lp_swap(LaurentPoly.one(2), 2, 2)


def test_divided_difference_examples():
    # f = z1: (z2 - z1)/(z1 - z2) = -1
    g = lp_divided_difference(LaurentPoly.var(2, 1), 1, 2)
    assert g == LaurentPoly.one(2).scale_coeffs(qq_int(-1))
    assert not lp_divided_difference(LaurentPoly.one(2), 1, 2)
    # f = z1^2: quotient of z2^2 - z1^2 by z1 - z2 is -(z1 + z2)
    g = lp_divided_difference(LaurentPoly.var(2, 1, 2), 1, 2)
    assert g == -(LaurentPoly.var(2, 1) + LaurentPoly.var(2, 2))


def test_divided_difference_property_thousand():
    rng = random.Random(1)
    for _ in range(1000):
        f = rand_poly(rng, arity=2, terms=3)
        g = lp_divided_difference(f, 1, 2)
        zdiff = LaurentPoly.var(2, 1) - LaurentPoly.var(2, 2)
        assert zdiff * g == lp_swap(f, 1, 2) - f


def test_scale_examples():
    m = LaurentPoly.monomial(1, (-3,))
    p = qpow(4)
    assert lp_scale(m, 1, p) == LaurentPoly.monomial(1, (-3,), qpow(-12))
    assert lp_scale(LaurentPoly.one(1), 1, p) == LaurentPoly.one(1)


def test_scale_inverse_composition():
    rng = random.Random(2)
    p = qpow(4)
    for _ in range(30):
        f = rand_poly(rng, arity=2)
        assert lp_scale(lp_scale(f, 1, p), 1, p.inv()) == f


def test_scale_rejects_non_monomial():
    with pytest.raises(ValueError):
        lp_scale(LaurentPoly.one(1), 1, qpow(1) + qpow(-1))


def test_specialize_examples():
    t = LaurentPoly.monomial(2, (1, 1))
    assert lp_specialize(t, 2, 1, qpow(-2)) == LaurentPoly.monomial(1, (2,), qpow(-2))
    # variable-independent re-index
    f = LaurentPoly.var(2, 1)
    assert lp_specialize(f, 2, 1, qpow(-2)) == LaurentPoly.var(1, 1)
    # the vanishing fusion prefactor
    v = LaurentPoly.var(2, 1) - LaurentPoly.var(2, 2).scale_coeffs(qpow(2))
    assert not lp_specialize(v, 2, 1, qpow(-2))


def test_specialize_linearity():
    rng = random.Random(3)
    for _ in range(30):
        f, g = rand_poly(rng), rand_poly(rng)
        lhs = lp_specialize(f + g, 2, 1, qpow(2))
        assert lhs == lp_specialize(f, 2, 1, qpow(2)) + lp_specialize(g, 2, 1, qpow(2))


def test_specialize_index_clash():
    with pytest.raises(ValueError):
        lp_specialize(LaurentPoly.one(2), 1, 1, qpow(1))


small = st.integers(min_value=-3, max_value=3)


@given(st.lists(st.tuples(small, small, small), min_size=1, max_size=4),
       st.lists(st.tuples(small, small, small), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_ring_axioms(ts1, ts2):
    def build(ts):
        out = LaurentPoly.zero(2)
        for a, b, c in ts:
            out = out + LaurentPoly.monomial(2, (a, b), qq_int(c))
        return out

    f, g = build(ts1), build(ts2)
    assert f * g == g * f
    assert f * (g + g) == f * g + f * g

