import random

from qlzero.hecke import (
    G_apply,
    G_poly,
    R_apply,
    S_apply,
    S_inv_apply,
    hecke_suite,
)
from qlzero.laurent import LaurentPoly, lp_specialize
from qlzero.scalars import QQ_ONE, qpow, qq_int
from qlzero.tensor import MINUS, PLUS, TensorPoly, singlet_vector
from qlzero.windows import Window


def test_s_table_entries():
    one = LaurentPoly.one(0)
    x = TensorPoly.basis((PLUS, PLUS), one)
    assert S_apply(x, 1) == x.scale(-qpow(-1))
    y = TensorPoly.basis((MINUS, PLUS), one)
    assert S_apply(y, 1) == TensorPoly.basis((PLUS, MINUS), one).scale(qq_int(-1))
    z = TensorPoly.basis((PLUS, MINUS), one)
    assert S_apply(z, 1) == (z.scale(qpow(1) - qpow(-1))
                             - TensorPoly.basis((MINUS, PLUS), one))


def test_s_eigenvalue_on_invariant_vector():
    v = singlet_vector(0)
    assert S_apply(v, 1) == v.scale(qpow(1))


def test_s_inverse_table():
    one = LaurentPoly.one(0)
    for eps in ((PLUS, PLUS), (PLUS, MINUS), (MINUS, PLUS), (MINUS, MINUS)):
        x = TensorPoly.basis(eps, one)
        assert S_inv_apply(S_apply(x, 1), 1) == x
        assert S_apply(x, 1) - S_inv_apply(x, 1) == x.scale(qpow(1) - qpow(-1))


def test_g_on_constants_and_variables():
    one2 = LaurentPoly.one(2)
    assert G_poly(one2, 1, 2, 1) == one2.scale_coeffs(qpow(1))
    assert G_poly(one2, 1, 2, -1) == one2.scale_coeffs(qpow(-1))
    z2 = LaurentPoly.var(2, 2)
    assert G_poly(z2, 1, 2, 1) == LaurentPoly.var(2, 1).scale_coeffs(qpow(-1))
    assert G_poly(z2, 1, 2, -1) == (LaurentPoly.var(2, 1).scale_coeffs(qpow(-1))
                                    + z2.scale_coeffs(qpow(-1) - qpow(1)))
    # G z1 = (q - q^{-1}) z1 + q z2, so the z1 terms of the image cancel
    f = LaurentPoly.var(2, 1) + z2.scale_coeffs(QQ_ONE - qpow(2))
    assert G_poly(f, 1, 2, 1).terms == {(0, 1): qpow(1)}


def test_g_quadratic_on_random():
    rng = random.Random(5)
    for _ in range(60):
        e = tuple(rng.randrange(-3, 2) for _ in range(2))
        f = LaurentPoly.monomial(2, e, qpow(rng.randrange(-2, 3)))
        assert G_poly(f, 1, 2, 1) - G_poly(f, 1, 2, -1) == f.scale_coeffs(qpow(1) - qpow(-1))


def test_g_apply_touches_coefficients_only():
    x = TensorPoly.basis((PLUS, MINUS), LaurentPoly.var(2, 2))
    y = G_apply(x, 1, 2)
    assert set(y.terms) == {(PLUS, MINUS)}


def test_r_apply_diagonal_entry():
    # table entry on a like-sign pair is (z - q^2)/(1 - q^2 z) at z = z2/z1;
    # cross-multiplied against num/den: num*(z1 - q^2 z2) == x*(z2 - q^2 z1)*den
    x = TensorPoly.basis((PLUS, PLUS), LaurentPoly.one(2))
    num, den = R_apply(x, 1, 2)
    table_num = LaurentPoly.var(2, 2) - LaurentPoly.var(2, 1).scale_coeffs(qpow(2))
    clear = LaurentPoly.var(2, 1) - LaurentPoly.var(2, 2).scale_coeffs(qpow(2))
    lhs = num.map_coeffs(lambda f: f * clear)
    rhs = x.mul_poly(table_num).map_coeffs(lambda f: f * den)
    assert lhs == rhs


def test_r_at_one_fixes_invariant_vector():
    x = singlet_vector(2)
    num, den = R_apply(x, 1, 2)
    resid = (num - x.mul_poly(den)).map_coeffs(lambda f: lp_specialize(f, 2, 1, QQ_ONE))
    assert not resid


def test_rs_consistency_random():
    rng = random.Random(6)
    for _ in range(20):
        eps = tuple(rng.choice((PLUS, MINUS)) for _ in range(2))
        f = LaurentPoly.monomial(2, (rng.randrange(-2, 1), rng.randrange(-2, 1)))
        x = TensorPoly.basis(eps, f)
        num, den = R_apply(x, 1, 2)
        want = (S_apply(x, 1).mul_poly(LaurentPoly.var(2, 2))
                - S_inv_apply(x, 1).mul_poly(LaurentPoly.var(2, 1)))
        assert num == want
        assert den == (LaurentPoly.var(2, 2).scale_coeffs(qpow(1))
                       - LaurentPoly.var(2, 1).scale_coeffs(qpow(-1)))


def test_suite_small():
    rep = hecke_suite(3, Window(3, -2))
    assert rep.ok, rep.lines()
