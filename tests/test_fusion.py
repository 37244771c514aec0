from qlzero.fusion import (
    e0_forms_check,
    fuse,
    rhof_check,
    specialize_adjacent,
)
from qlzero.kernel import kernel_build
from qlzero.laurent import LaurentPoly
from qlzero.scalars import qpow, qq_int
from qlzero.series import series_e0
from qlzero.tensor import MINUS, PLUS, TensorPoly, singlet_vector


def test_specialize_adjacent_basics():
    x = TensorPoly.basis((PLUS, MINUS), LaurentPoly.var(2, 2))
    y = specialize_adjacent(x, 1)
    assert y == TensorPoly.basis((PLUS, MINUS), LaurentPoly.var(1, 1).scale_coeffs(qpow(-2)))
    # spectator-only coefficient re-indexes
    x2 = TensorPoly.basis((PLUS, MINUS), LaurentPoly.var(2, 1))
    assert specialize_adjacent(x2, 1) == TensorPoly.basis((PLUS, MINUS), LaurentPoly.var(1, 1))
    # linearity
    assert specialize_adjacent(x + x2, 1) == specialize_adjacent(x, 1) + specialize_adjacent(x2, 1)


def test_fuse_channel_weights():
    one2 = LaurentPoly.one(2)
    f1 = fuse(TensorPoly.basis((PLUS, MINUS), one2), 1)
    assert f1.coeff(()) == LaurentPoly.one(1).scale_coeffs(qq_int(-1) * qpow(1))
    f2 = fuse(TensorPoly.basis((MINUS, PLUS), one2), 1)
    assert f2.coeff(()) == LaurentPoly.one(1)
    f3 = fuse(singlet_vector(2), 1)
    assert f3.coeff(()) == LaurentPoly.one(1).scale_coeffs(-(qpow(1) + qpow(-1)))
    assert not fuse(TensorPoly.basis((PLUS, PLUS), one2), 1)


def test_fuse_attaches_prefactors_at_three_slots():
    x = TensorPoly.basis((PLUS, PLUS, MINUS), LaurentPoly.one(3))
    y = fuse(x, 2)
    # slots (2,3) contract; the prefactor is z1 - q^2 z2 with z2 the spectator
    pref = LaurentPoly.var(2, 1) - LaurentPoly.var(2, 2).scale_coeffs(qpow(2))
    assert y == TensorPoly.basis((PLUS,), pref.scale_coeffs(qq_int(-1) * qpow(1)))


def test_rhof_small_and_controls():
    kb = kernel_build(2, 3)
    rep = rhof_check(2, kb)
    assert rep.ok, rep.lines()
    rep = rhof_check(2, kb, p=qpow(3))
    assert rep.ok, rep.lines()


def test_rhof_triplet_channel_kills_both_sides():
    # like-sign sources have no reduced window; every specialized coefficient
    # must already be a kernel member
    kb = kernel_build(2, 3)
    X = TensorPoly.window((PLUS, PLUS), 3)
    lhs = specialize_adjacent(series_e0(X, qpow(4)), 1)
    for expo, vec in lhs.extract_all().items():
        if vec and sum(expo) <= 3:
            assert kb.member(vec)


def test_e0_forms_agree_mod_exchange():
    rep = e0_forms_check(2, kernel_build(2, 2, ("HEC", "HWT")))
    assert rep.ok, rep.lines()
