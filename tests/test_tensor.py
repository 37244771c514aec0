from qlzero.laurent import LaurentPoly
from qlzero.scalars import qpow
from qlzero.tensor import (
    GradedSlot,
    MINUS,
    PLUS,
    TensorPoly,
    kappa,
    sign_strings,
    singlet_contract,
    singlet_vector,
    uq_apply,
    weight_degree,
)


def test_generator_annihilates_invariant_vector():
    v = singlet_vector(0)
    assert not uq_apply("e1", v)
    assert not uq_apply("f1", v)
    assert uq_apply("t1", v) == v


def test_sum_with_negation_stores_no_terms():
    x = singlet_vector(2) + TensorPoly.monomial((PLUS, PLUS), (1, -1))
    x += -x
    assert x.terms == {}


def test_t1_on_doubly_raised():
    x = TensorPoly.basis((PLUS, PLUS), LaurentPoly.one(2))
    assert uq_apply("t1", x) == x.scale(qpow(2))


def test_coproduct_iteration_matches_two_slot_table():
    # e1 on v- (x) v- hits both slots, with a t-factor on the right tail
    x = TensorPoly.basis((MINUS, MINUS), LaurentPoly.one(2))
    y = uq_apply("e1", x)
    want = (TensorPoly.basis((PLUS, MINUS), LaurentPoly.one(2).scale_coeffs(qpow(-1)))
            + TensorPoly.basis((MINUS, PLUS), LaurentPoly.one(2)))
    assert y == want


def test_singlet_contract_examples():
    x = TensorPoly.basis((PLUS, MINUS), LaurentPoly.one(0))
    out = singlet_contract(x, 1)
    assert out.coeff(()) == LaurentPoly.one(0)
    assert not singlet_contract(TensorPoly.basis((PLUS, PLUS), LaurentPoly.one(0)), 1)


def test_singlet_contract_commutes_with_spectators():
    f = LaurentPoly.monomial(3, (0, 0, -2), qpow(1))
    x = TensorPoly.basis((PLUS, MINUS, PLUS), f)
    a = singlet_contract(x, 1).mul_poly(LaurentPoly.var(3, 3))
    b = singlet_contract(x.mul_poly(LaurentPoly.var(3, 3)), 1)
    assert a == b


def test_weight_degree_examples():
    x = TensorPoly.basis((PLUS, MINUS), LaurentPoly.one(2))
    assert weight_degree(x) == {GradedSlot(0, 0)}
    y = TensorPoly.monomial((PLUS,), (-2,))
    assert weight_degree(y) == {GradedSlot(1, 2)}


def test_weights_add_under_concatenation():
    x = TensorPoly.monomial((PLUS,), (-1,))
    y = TensorPoly.monomial((PLUS, MINUS, MINUS), (-1, 0, -2))
    gx = weight_degree(x).pop()
    gy = weight_degree(y).pop()
    joined = TensorPoly.monomial((PLUS, PLUS, MINUS, MINUS), (-1, -1, 0, -2))
    gj = weight_degree(joined).pop()
    assert gj.weight == gx.weight + gy.weight
    assert gj.degree == gx.degree + gy.degree


def test_kappa_values_and_integrality():
    assert kappa(1) == (0,)
    assert kappa(2) == (0, 0)
    assert kappa(3) == (1, 0, 0)
    assert kappa(4) == (1, 1, 0, 0)
    for n in range(1, 9):
        assert all(isinstance(k, int) for k in kappa(n))


def test_sign_strings_order_deterministic():
    assert sign_strings(2) == [(PLUS, PLUS), (PLUS, MINUS), (MINUS, PLUS), (MINUS, MINUS)]
