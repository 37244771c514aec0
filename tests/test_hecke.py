import random

from qlzero import hecke
from qlzero.hecke import (
    G_poly,
    R_apply,
    S_apply,
    S_inv_apply,
    hecke_suite,
)
from qlzero.laurent import LaurentPoly, lp_divided_difference, lp_specialize
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


def test_g_matches_its_definition():
    # the closed-form images against G^{+-1} f = (q^{-1} z_j - q z_k) d_{jk} f
    # + q^{+-1} f, with coefficients inside and outside Z[q, q^{-1}], on
    # adjacent, non-adjacent and reversed pairs
    coeffs = (qpow(2), qq_int(-3), qpow(1) - qpow(-1),
              (qpow(1) + qpow(-1)).inv(), qpow(1) * qq_int(2).inv())
    rng = random.Random(19)
    for _ in range(30):
        f = LaurentPoly.zero(3)
        for c in coeffs:
            f = f + LaurentPoly.monomial(3, tuple(rng.randrange(-3, 2) for _ in range(3)), c)
        for j, k in ((1, 2), (2, 3), (1, 3), (2, 1)):
            mult = (LaurentPoly.var(3, j).scale_coeffs(qpow(-1))
                    - LaurentPoly.var(3, k).scale_coeffs(qpow(1)))
            dd = mult * lp_divided_difference(f, j, k)
            for ex in (1, -1):
                assert G_poly(f, j, k, ex) == dd + f.scale_coeffs(qpow(ex)), (j, k, ex)


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


def test_suite_observes_a_wrong_g_inverse(monkeypatch):
    # G^{-1} replaced by G breaks both quadratic residuals on every one of
    # the 27 monomials x 2 pairs
    monkeypatch.setattr(hecke, "G_poly", lambda f, j, k, exponent=1: G_poly(f, j, k, 1))
    got = {r.name: (r.status, r.residual) for r in hecke_suite(3, Window(3, -2)).results}
    assert got["hecke.quadratic.G.N3"] == ("fail", 108)
