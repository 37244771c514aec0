import random

from qlzero import affine
from qlzero.affine import (
    Y_apply,
    Y_poly,
    Z_apply,
    Z_inv_apply,
    affine_hecke_suite,
    lemma_suite,
    op_B,
    op_C,
    op_G,
    y_by_monomial,
)
from qlzero.hecke import G_poly
from qlzero.laurent import LaurentPoly, lp_scale
from qlzero.scalars import QQ_ONE, qpow, qq_int
from qlzero.tensor import PLUS, TensorPoly
from qlzero.windows import Window

P = qpow(4)


def rand_mono(rng, n, span=3):
    return LaurentPoly.monomial(n, tuple(rng.randrange(-span, 1) for _ in range(n)))


def test_cycle_on_single_variable():
    m = LaurentPoly.monomial(1, (-3,))
    assert Z_apply(m, P) == lp_scale(m, 1, P)
    assert Z_inv_apply(Z_apply(m, P), P) == m


def test_cycle_squared_is_global_scale_two_variables():
    rng = random.Random(8)
    for _ in range(20):
        f = rand_mono(rng, 2)
        assert Z_apply(Z_apply(f, P), P) == lp_scale(lp_scale(f, 1, P), 2, P)


def test_cycle_rotates_arguments():
    # f(z1, z2, z3) -> f(z2, z3, p^{-1} z1) under the inverse cycle:
    # z1^{-1} z2^{-2} becomes z2^{-1} z3^{-2}
    f = LaurentPoly.monomial(3, (-1, -2, 0))
    g = Z_inv_apply(f, P)
    assert g == LaurentPoly.monomial(3, (0, -1, -2))
    assert Z_apply(g, P) == f
    # the last argument carries the scale: z3^{-1} -> (p^{-1} z1)^{-1}
    h = Z_inv_apply(LaurentPoly.monomial(3, (0, 0, -1)), P)
    assert h == LaurentPoly.monomial(3, (-1, 0, 0), qpow(4))


def test_y_single_variable_is_scale():
    m = LaurentPoly.monomial(1, (-3,))
    assert Y_poly(m, 1, P) == m.scale_coeffs(qpow(-12))


def test_y_on_constants_two_variables():
    one = LaurentPoly.one(2)
    assert Y_poly(one, 1, P) == one.scale_coeffs(qpow(-1))
    assert Y_poly(one, 2, P) == one.scale_coeffs(qpow(1))


def test_y_inverse_round_trip():
    rng = random.Random(9)
    for _ in range(15):
        f = rand_mono(rng, 3, span=2)
        for j in (1, 2, 3):
            assert Y_poly(Y_poly(f, j, P), j, P, -1) == f


def test_y_by_monomial_matches_y_poly():
    # multi-term inputs with non-unit coefficients and cyclotomic
    # denominators, plus a bare monomial (the unscaled path)
    coeffs = (qq_int(3), (qpow(2) + QQ_ONE).inv(), qpow(-1) - qq_int(2),
              (qpow(1) - qpow(-1)).inv())
    rng = random.Random(15)
    for n in (2, 3):
        fs = [rand_mono(rng, n)]
        for _ in range(3):
            f = LaurentPoly.zero(n)
            for c in coeffs:
                f = f + rand_mono(rng, n).scale_coeffs(c)
            fs.append(f)
        Y = y_by_monomial(P)
        for f in fs:
            for j in range(1, n + 1):
                for e in (1, -1):
                    want = Y_poly(f, j, P, e)
                    first = Y(f, j, e)
                    kept = dict(first.terms)
                    assert first == want
                    assert Y(f, j, e) == want          # served from held images
                    assert first.terms == kept


def test_y_apply_on_tensor_coefficients():
    x = TensorPoly.basis((PLUS, PLUS), LaurentPoly.one(2))
    assert Y_apply(x, 2, P) == x.scale(qpow(1))


def test_suite_with_three_scale_choices():
    for p in (qpow(3), qpow(4), qpow(5)):
        rep = affine_hecke_suite(2, p, Window(2, -3))
        assert rep.ok, rep.lines()


def test_checks_without_a_pair_of_slots_skip():
    # one slot has no pair for commutation or crossing: at N=1 those two say
    # so while the inverse and cone checks still run; at N=2 all four run
    for N, want in ((1, "skipped"), (2, "pass")):
        status = {r.name: r.status for r in affine_hecke_suite(N, P, Window(N, -2)).results}
        for name in ("commute", "crossing"):
            assert status[f"affine.{name}.N{N}"] == want, name
        for name in ("inverse", "cone"):
            assert status[f"affine.{name}.N{N}"] == "pass", name


def test_suite_observes_a_wrong_g_inverse(monkeypatch):
    # G^{-1} replaced by G breaks every relation that inverts a G, in Y or
    # outside it; far commutation and the cone do not see the exponent
    monkeypatch.setattr(affine, "G_poly", lambda f, j, k, exponent=1: G_poly(f, j, k, 1))
    got = {r.name: (r.status, r.residual)
           for r in affine_hecke_suite(3, P, Window(3, -2)).results}
    assert got["affine.commute.N3"] == ("fail", 66)
    assert got["affine.crossing.N3"] == ("fail", 54)
    assert got["affine.inverse.N3"] == ("fail", 54)
    assert got["affine.far.N3"] == ("pass", 0)
    assert got["affine.cone.N3"] == ("pass", 0)


def test_conjugated_quadratic_relation():
    # Y G Y^{-1} still satisfies the quadratic relation
    rng = random.Random(10)
    qdiff = qpow(1) - qpow(-1)
    for _ in range(10):
        f = rand_mono(rng, 2, span=2)
        a = Y_poly(G_poly(Y_poly(f, 1, P, -1), 1, 2, 1), 1, P)
        b = Y_poly(G_poly(Y_poly(f, 1, P, -1), 1, 2, -1), 1, P)
        assert a - b == f.scale_coeffs(qdiff)


def test_rational_op_calculus_against_direct_g():
    rng = random.Random(11)
    for _ in range(10):
        f = rand_mono(rng, 3, span=2)
        for (j, k) in ((1, 2), (2, 3)):
            num, den = op_G(3, j, k).apply_cleared(f)
            assert num == G_poly(f, j, k) * den


def test_bc_blocks_telescope():
    # B + C = q and B + Cbar = q^{-1}, cross-multiplied
    for bar, scale in ((False, qpow(1)), (True, qpow(-1))):
        combo = op_B(2, 1, 2) + op_C(2, 1, 2, bar=bar)
        f = LaurentPoly.var(2, 1)
        n1, d1 = combo.apply_cleared(f)
        assert n1 == f.scale_coeffs(scale) * d1


def test_lemma_suite_all_pass():
    rep = lemma_suite()
    assert rep.ok, rep.lines()
