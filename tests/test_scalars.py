import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qlzero.scalars import (
    QP_ONE,
    QP_ZERO,
    QQ_ONE,
    QQ_ZERO,
    RatFuncQ,
    qp_add,
    qp_div_exact,
    qp_from_dict,
    qp_gcd,
    qp_monomial,
    qp_mul,
    qp_neg,
    qp_trim,
    qpow,
    qq_int,
)


def test_normalize_cancels_common_factor():
    # (q^2 - 1)/(q - 1) = q + 1
    a = RatFuncQ(qp_from_dict({2: 1, 0: -1}), qp_from_dict({1: 1, 0: -1}))
    assert a == RatFuncQ(qp_from_dict({0: 1, 1: 1}))


def test_normalize_zero_numerator():
    z = RatFuncQ(QP_ZERO, qp_monomial(3))
    assert z == QQ_ZERO
    assert z.num == QP_ZERO and z.den == QP_ONE


def test_normalize_already_reduced():
    b = RatFuncQ(qp_from_dict({2: 1, 0: -1}), qp_monomial(1))
    assert b.num == qp_from_dict({2: 1, 0: -1})
    assert b.den == qp_monomial(1)


def test_normalize_scale_invariance():
    c = qp_from_dict({3: 2, 1: -5})
    a = RatFuncQ(qp_mul(qp_from_dict({1: 1}), c), qp_mul(qp_from_dict({0: 2, 2: 1}), c))
    b = RatFuncQ(qp_from_dict({1: 1}), qp_from_dict({0: 2, 2: 1}))
    assert a == b


def test_normalize_rejects_zero_denominator():
    import pytest

    with pytest.raises(ZeroDivisionError):
        RatFuncQ(QP_ONE, QP_ZERO)


def test_denominator_leading_coefficient_positive():
    a = RatFuncQ(qp_from_dict({0: 1}), qp_from_dict({1: -1}))
    assert a.den[-1] > 0


def test_qpow_and_field_ops():
    assert qpow(3) * qpow(-5) == qpow(-2)
    s = qpow(1) + qpow(-1)
    assert s.inv() * s == QQ_ONE
    assert (qpow(1) - qpow(-1)) * s == qpow(2) - qpow(-2)
    assert (s - s) == QQ_ZERO


scalars = st.integers(min_value=-40, max_value=40).map(qq_int)
small_rfq = st.builds(
    lambda n, k: qq_int(n) * qpow(k),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-4, max_value=4),
)


@given(small_rfq, small_rfq, small_rfq)
@settings(max_examples=120, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


def test_gcd_primitive_positive():
    a = qp_from_dict({0: -2, 1: -4})     # -2(1+2q)
    b = qp_from_dict({0: 2, 2: 2})       # 2(1+q^2)
    g = qp_gcd(a, b)
    assert g == qp_from_dict({0: 2})


def test_serialization_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        num = qp_from_dict({rng.randrange(6): rng.randrange(-9, 10) for _ in range(3)})
        den = qp_from_dict({rng.randrange(4): rng.randrange(1, 9) for _ in range(2)})
        if not den:
            continue
        a = RatFuncQ(num, den)
        assert RatFuncQ.from_text(a.to_text()) == a


# -- exact division in Z[q] -------------------------------------------------------


def test_div_exact_quotients():
    b = qp_from_dict({0: 4, 1: 2})                 # 2q + 4, not monic
    a = qp_from_dict({0: -1, 2: 3})                # 3q^2 - 1
    assert qp_div_exact(qp_mul(a, b), b) == a
    assert qp_div_exact((6,), (2,)) == (3,)
    assert qp_div_exact((0, 0, -6), (0, 3)) == (0, -2)
    assert qp_div_exact(QP_ZERO, (5, 1)) == QP_ZERO


@pytest.mark.parametrize("a, b", [((1,), (2,)), ((1, 1), (1, 2)),
                                  ((1,), (1, 1)), ((1, 0, 1), (1, 1)),
                                  # monomial divisors: a term below q^k, and
                                  # content that c does not divide
                                  ((1, 2, 3), (0, 1)), ((5,), (0, 0, -1)),
                                  ((0, 0, 4, 6), (0, 0, 4)), ((0, 3, 6), (0, -2))])
def test_div_exact_rejects_quotients_outside_zq(a, b):
    with pytest.raises(ArithmeticError):
        qp_div_exact(a, b)


@pytest.mark.parametrize("a", [(1,), QP_ZERO])
def test_div_exact_by_zero(a):
    with pytest.raises(ZeroDivisionError):
        qp_div_exact(a, QP_ZERO)


polys = st.lists(st.integers(min_value=-30, max_value=30), max_size=6).map(qp_trim)


@given(polys, polys.filter(bool))
@settings(max_examples=150, deadline=None)
def test_div_exact_inverts_mul(a, b):
    assert qp_div_exact(qp_mul(a, b), b) == a


# -- Q(q) arithmetic against a reference normalizer ----------------------------------


def ref_div(a, b):
    """a / b by long division over Fraction; ArithmeticError unless the
    quotient lies in Z[q]."""
    rem, quo = [Fraction(c) for c in a], [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        quo[k] = rem[k + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            rem[k + i] -= quo[k] * c
    if any(rem) or any(f.denominator != 1 for f in quo):
        raise ArithmeticError("inexact")
    return qp_trim(int(f) for f in quo)


def ref_gcd(a, b):
    """gcd in Z[q] without qlzero: Euclid over Fraction coefficients, made
    primitive with positive leading coefficient, times the gcd of the
    contents."""
    def rem(x, y):
        x = list(x)
        while len(x) >= len(y):
            f, shift = x[-1] / y[-1], len(x) - len(y)
            for i, c in enumerate(y):
                x[shift + i] -= f * c
            while x and not x[-1]:
                x.pop()
        return x

    x, y = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while y:
        x, y = y, rem(x, y)
    content = math.gcd(math.gcd(*a), math.gcd(*b))
    if not x:
        return qp_trim([content])
    scale = math.lcm(*(f.denominator for f in x))
    ints = [int(f * scale) for f in x]
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return tuple(content * (v // g) for v in ints)


def ref_reduce(num, den):
    """num/den in canonical form by the general route: the reference gcd,
    exact division, integer content, positive leading coefficient of den."""
    if not num:
        return QP_ZERO, QP_ONE
    g = ref_gcd(num, den)
    num, den = ref_div(num, g), ref_div(den, g)
    c = math.gcd(math.gcd(*num), math.gcd(*den))
    if den[-1] < 0:
        c = -c
    return tuple(x // c for x in num), tuple(x // c for x in den)


def ref(num, den):
    return RatFuncQ(*ref_reduce(num, den), _reduced=True)


def ref_mul(a, b):
    return ref(qp_mul(a.num, b.num), qp_mul(a.den, b.den))


def ref_add(a, b):
    return ref(qp_add(qp_mul(a.num, b.den), qp_mul(a.den, b.num)),
               qp_mul(a.den, b.den))


def ref_sub(a, b):
    return ref_add(a, RatFuncQ(qp_neg(b.num), b.den, _reduced=True))


def ref_inv(a):
    return ref(a.den, a.num)


def is_monomial(p):
    return sum(1 for c in p if c) == 1


def one_minus_q(n):
    return qp_add(QP_ONE, qp_neg(qp_monomial(n)))


def cyclotomic_product(ns):
    out = QP_ONE
    for n in ns:
        out = qp_mul(out, one_minus_q(n))
    return out


# numerators with shared content and valuation, zero and negative included
numerators = st.builds(
    lambda cs, content, val: qp_trim([0] * val + [content * c for c in cs]),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=5),
    st.sampled_from([1, 1, 2, 3, 6, -4]),
    st.integers(min_value=0, max_value=4))
laurent_dens = st.builds(lambda c, k: qp_monomial(k, c),
                         st.sampled_from([1, 1, 2, 3, 4, 6, 12, -1, -6]),
                         st.integers(min_value=0, max_value=5))
cyclotomic_dens = st.builds(
    lambda ns, c, k: qp_mul(qp_monomial(k, c), cyclotomic_product(ns)),
    st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=3),
    st.sampled_from([1, 2, -3]),
    st.integers(min_value=0, max_value=3))


raw_fractions = st.tuples(numerators, st.one_of(laurent_dens, cyclotomic_dens))
fractions = raw_fractions.map(lambda nd: ref(*nd))


def assert_field_ops_match(a, b):
    assert a * b == ref_mul(a, b)
    assert a + b == ref_add(a, b)
    assert a - b == ref_sub(a, b)
    if a:
        assert a.inv() == ref_inv(a)


@given(raw_fractions)
@settings(max_examples=200, deadline=None)
def test_normalize_matches_reference(nd):
    num, den = nd
    got = RatFuncQ(num, den)
    assert (got.num, got.den) == ref_reduce(num, den)


@given(fractions, fractions)
@settings(max_examples=300, deadline=None)
def test_field_ops_match_reference(a, b):
    assert_field_ops_match(a, b)


# -- the gcd and exact division against a monomial c*q^k -------------------------

monomials = st.builds(lambda c, k: qp_monomial(k, c),
                      st.integers(min_value=-12, max_value=12).filter(bool),
                      st.integers(min_value=0, max_value=6))
other_sides = st.one_of(numerators, cyclotomic_dens, polys)


@given(monomials, other_sides)
@settings(max_examples=300, deadline=None)
def test_gcd_with_monomial_matches_reference(m, other):
    assert qp_gcd(m, other) == ref_gcd(m, other)
    assert qp_gcd(other, m) == ref_gcd(other, m)


@given(monomials, other_sides)
@settings(max_examples=300, deadline=None)
def test_div_by_monomial_matches_reference(m, other):
    assert qp_div_exact(qp_mul(other, m), m) == other
    try:
        want = ref_div(other, m)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            qp_div_exact(other, m)
    else:
        assert qp_div_exact(other, m) == want


@pytest.mark.parametrize("a, b, g", [
    ((0, 0, 0, 0, 0, 6, 6), (0, 0, -4), (0, 0, 2)),     # valuation above k
    ((0, 3), (0, 0, 0, 6, 9), (0, 3)),                  # valuation below k
    ((-3,), (6, 9), (3,)),                              # constants, c < 0
    ((0, 5), QP_ZERO, (0, 5)), ((0, -5), QP_ZERO, (0, 5)),
    ((0, 0, 4), (2, 0, -2), (2,)),                      # cyclotomic other side
    ((0, 2), (1, 1), (1,)),
])
def test_gcd_with_monomial_fixed_cases(a, b, g):
    assert qp_gcd(a, b) == qp_gcd(b, a) == ref_gcd(a, b) == g


def test_field_ops_fixed_cases():
    """One pair per branch of the Q(q) arithmetic, each checked to be in its
    case, so that no branch goes unexercised."""
    laurent_a = ref((4, 2), (0, 0, 3))                # (2q + 4)/(3q^2)
    laurent_b = ref((0, 3), (4,))                     # 3q/4
    cyclo_a = ref(QP_ONE, one_minus_q(1))             # 1/(1 - q)
    cyclo_b = ref((0, 1), one_minus_q(2))             # q/(1 - q^2)
    for x, mono in ((laurent_a, True), (laurent_b, True),
                    (cyclo_a, False), (cyclo_b, False)):
        assert is_monomial(x.den) == mono
    # both sides monomial: (q + 2)/(2q), valuation and content stripped
    assert laurent_a * laurent_b == ref((2, 1), (0, 2))
    assert laurent_a + laurent_b == ref((16, 8, 0, 9), (0, 0, 12))
    # exactly one side monomial
    for a, b in ((laurent_a, cyclo_b), (cyclo_a, laurent_b)):
        assert is_monomial(a.den) != is_monomial(b.den)
        assert_field_ops_match(a, b)
        assert_field_ops_match(b, a)
    # neither side monomial
    assert_field_ops_match(cyclo_a, cyclo_b)
    assert cyclo_a - cyclo_b == ref(QP_ONE, one_minus_q(2))
    # sums that cancel to zero, on either kind of denominator
    for x in (laurent_a, cyclo_b):
        assert x + (-x) == QQ_ZERO
        assert (x + (-x)).den == QP_ONE
    # integer content to strip: 1/2 + 1/2 (same denominator), q/6 + q/3
    half = ref(QP_ONE, (2,))
    assert half + half == QQ_ONE
    assert ref((0, 1), (6,)) + ref((0, 1), (3,)) == ref((0, 1), (2,))
    assert (ref((0, 1), (6,)) + ref((0, 1), (3,))).den == (2,)
    # a monomial denominator with negative sign normalizes to c > 0
    neg = RatFuncQ((0, 2), (0, 0, -4))
    assert (neg.num, neg.den) == ((-1,), (0, 2))
