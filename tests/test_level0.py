import pytest

from qlzero import level0
from qlzero.affine import affine_hecke_suite
from qlzero.hecke import hecke_suite
from qlzero.kernel import kernel_build, vec_to_tensor
from qlzero.laurent import LaurentPoly
from qlzero.level0 import (
    chevalley_check,
    e0_apply,
    e_op,
    evaluation_module_suite,
    f0_apply,
    f_op,
    rhosg_check,
    t0_apply,
)
from qlzero.scalars import qpow
from qlzero.series import series_e0, series_f0
from qlzero.tensor import MINUS, PLUS, TensorPoly, sign_strings, uq_apply, weight_degree
from qlzero.windows import Window, cone_cell, cone_exponents


def test_t0_diagonal_and_level_zero():
    x = TensorPoly.basis((PLUS, PLUS), LaurentPoly.monomial(2, (-1, 0)))
    assert t0_apply(x) == x.scale(qpow(-2))
    y = TensorPoly.basis((PLUS, MINUS), LaurentPoly.one(2))
    assert t0_apply(y) == y
    # t0 after the finite t-action is the identity (central element trivial)
    for eps in sign_strings(2):
        z = TensorPoly.basis(eps, LaurentPoly.one(2))
        assert t0_apply(uq_apply("t1", z)) == z


def test_single_slot_lowering():
    x = TensorPoly.basis((PLUS,), LaurentPoly.one(1))
    assert series_e0(x) == TensorPoly.basis((MINUS,), LaurentPoly.one(1))
    assert e0_apply(x) == TensorPoly.basis((MINUS,), LaurentPoly.one(1))
    assert not e0_apply(TensorPoly.basis((MINUS,), LaurentPoly.monomial(1, (-2,))))
    # mode -1 is the coefficient of z^{+1}, where Y_1^{-1} shows its scale
    assert e0_apply(TensorPoly.monomial((PLUS,), (-1,)), qpow(4)) \
        == TensorPoly.monomial((MINUS,), (-1,), qpow(-4))


@pytest.mark.parametrize("N, depth", [(1, 3), (2, 3), (3, 2)])
def test_element_face_matches_series_extraction(N, depth):
    # the element face of a symbol at mode mu is the coefficient of z^{-mu}
    # in the series face applied to the window of its sign string
    checked = 0
    for p in (qpow(4), qpow(3), qpow(-4)):
        for eps in sign_strings(N):
            X = TensorPoly.window(eps, depth)
            for element, series in ((e0_apply, series_e0), (f0_apply, series_f0)):
                image = series(X, p).extract_all()
                for mu in cone_exponents(N, depth):
                    want = vec_to_tensor(image.get(tuple(-x for x in mu), {}), N, N)
                    got = element(TensorPoly.monomial(eps, mu), p)
                    assert got == want, (element.__name__, p, eps, mu)
                    checked += 1
    assert checked == 3 * 2 * len(sign_strings(N)) * len(cone_exponents(N, depth))


def test_single_slot_raising():
    x = TensorPoly.basis((MINUS,), LaurentPoly.one(1))
    assert f0_apply(x) == TensorPoly.basis((PLUS,), LaurentPoly.one(1))
    assert not f0_apply(TensorPoly.basis((PLUS,), LaurentPoly.one(1)))
    assert f0_apply(TensorPoly.monomial((MINUS,), (-1,)), qpow(4)) \
        == TensorPoly.monomial((PLUS,), (-1,), qpow(4))


def test_weight_bookkeeping():
    for eps in sign_strings(2):
        for m in cone_cell(2, -2):
            x = TensorPoly.monomial(eps, m)
            y = e0_apply(x)
            if y:
                gx = weight_degree(x).pop()
                for g in weight_degree(y):
                    assert g.weight == gx.weight - 2
                    assert g.degree == gx.degree
            z = f0_apply(x)
            if z:
                gx = weight_degree(x).pop()
                for g in weight_degree(z):
                    assert g.weight == gx.weight + 2


def test_two_slot_series_image_weight_degree():
    x = TensorPoly.basis((PLUS, PLUS), LaurentPoly.one(2))
    y = series_e0(x)
    assert y
    for g in weight_degree(y):
        assert g.weight == 0 and g.degree == 0


def test_rhosg_exact_small_windows():
    for p in (qpow(4), qpow(3)):
        rep = rhosg_check(2, p, Window(2, -3))
        assert rep.ok, rep.lines()
    rep = rhosg_check(3, qpow(4), Window(3, -2))
    assert rep.ok, rep.lines()


def test_rhosg_observes_a_missing_s(monkeypatch):
    # with S replaced by the identity the exchange identity must break on
    # both generators and every pair: in 27 of the 4 strings x 9 monomials
    # at N=2 and in 162 of the 8 strings x 27 monomials at N=3, counted per
    # (monomial, string) though rows are summed once up to a q-power; the
    # far slots do not see S and still commute
    monkeypatch.setattr(level0, "S_apply", lambda x, j: x)
    for N, bad in ((2, 27), (3, 162)):
        got = {r.name: (r.status, r.residual)
               for r in rhosg_check(N, qpow(4), Window(N, -2)).results}
        for gen in ("e0", "f0"):
            for j in range(1, N):
                assert got[f"rhosg.{gen}.j{j}.N{N}"] == ("fail", bad)
    assert got["rhosg.far.N3"] == ("pass", 0)


def test_checks_with_nothing_to_observe_skip():
    # braid needs three slots and far commutation a slot off the pair: at
    # N=2 these four checks see nothing and say so; at N=3 they run
    p = qpow(4)
    for N, want in ((2, "skipped"), (3, "pass")):
        w = Window(N, -1)
        status = {r.name: r.status for r in hecke_suite(N, w).results
                  + affine_hecke_suite(N, p, w).results + rhosg_check(N, p, w).results}
        for name in ("hecke.braid.S", "hecke.braid.G", "affine.far", "rhosg.far"):
            assert status[f"{name}.N{N}"] == want, name


def test_evaluation_module_relations():
    for n in (1, 2, 3):
        rep = evaluation_module_suite(n)
        assert rep.ok, rep.lines()


def test_chevalley_on_quotient():
    kb = kernel_build(2, 3, ("HEC", "HWT"))
    rep = chevalley_check(2, kb)
    assert rep.ok, rep.lines()


def test_twisted_generators_need_one_variable_per_slot():
    # a sign-string tensor with a spare variable (as fusion leaves behind)
    # is not a window of the generators
    x = TensorPoly.basis((PLUS,), LaurentPoly.one(2))
    for gen in (series_e0, series_f0, e0_apply, f0_apply):
        with pytest.raises(ValueError):
            gen(x)


def test_hat_action_requires_cone():
    x = TensorPoly.monomial((PLUS,), (1,))
    with pytest.raises(ValueError):
        e0_apply(x)


def test_slot_tail_scales():
    # lowering at slot 1 of (+,+) drags an inverse-t factor past slot 2
    x = TensorPoly.basis((PLUS, PLUS), LaurentPoly.one(2))
    assert f_op(x, 1) == TensorPoly.basis((MINUS, PLUS),
                                          LaurentPoly.one(2).scale_coeffs(qpow(-1)))
    assert f_op(x, 2) == TensorPoly.basis((PLUS, MINUS), LaurentPoly.one(2))
    y = TensorPoly.basis((MINUS, MINUS), LaurentPoly.one(2))
    assert e_op(y, 2) == TensorPoly.basis((MINUS, PLUS),
                                          LaurentPoly.one(2).scale_coeffs(qpow(-1)))
