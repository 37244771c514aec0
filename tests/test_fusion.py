from qlzero.fusion import e0_forms_check, rhof_check
from qlzero.kernel import (fusion_prefactor, fusion_relation, fusion_weight,
                           kernel_build, specialize_adjacent)
from qlzero.laurent import LaurentPoly
from qlzero.scalars import QQ_ONE, qpow
from qlzero.series import series_e0
from qlzero.tensor import MINUS, PLUS, TensorPoly


def test_specialize_adjacent_basics():
    x = TensorPoly.basis((PLUS, MINUS), LaurentPoly.var(2, 2))
    y = specialize_adjacent(x, 1)
    assert y == TensorPoly.basis((PLUS, MINUS), LaurentPoly.var(1, 1).scale_coeffs(qpow(-2)))
    # spectator-only coefficient re-indexes
    x2 = TensorPoly.basis((PLUS, MINUS), LaurentPoly.var(2, 1))
    assert specialize_adjacent(x2, 1) == TensorPoly.basis((PLUS, MINUS), LaurentPoly.var(1, 1))
    # linearity
    assert specialize_adjacent(x + x2, 1) == specialize_adjacent(x, 1) + specialize_adjacent(x2, 1)


def test_fusion_channel_weights():
    # (-q)^{n-j+(eps_j-1)/2}: the + channel carries one more factor of -q
    assert fusion_weight(2, 1, PLUS) == -qpow(1)
    assert fusion_weight(2, 1, MINUS) == QQ_ONE
    assert fusion_weight(3, 2, PLUS) == -qpow(1)


def test_fusion_prefactor_at_three_slots():
    # pair (2,3) of three slots: z1 - q^2 z2 with z2 the spectator
    pref = LaurentPoly.var(2, 1) - LaurentPoly.var(2, 2).scale_coeffs(qpow(2))
    assert fusion_prefactor(3, 2, 2) == pref


def test_fusion_relation_vacuum_coefficients():
    # at depth 0 the two-slot relation is the specialized symbol minus the
    # channel weight times the vacuum symbol
    vac = ((), ())
    for eps, c in (((PLUS, MINUS), qpow(1)), ((MINUS, PLUS), -QQ_ONE)):
        rel = fusion_relation(eps, 1, 0)
        assert rel.terms[vac] == LaurentPoly.const(1, c)
    # like signs have no reduced window
    assert vac not in fusion_relation((PLUS, PLUS), 1, 0).terms


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
