import pytest

from qlzero.rewrite import (
    NormalForm,
    RewriteSystem,
    disorder,
    normal_form,
    rewriter_completeness_check,
    rewriter_soundness_check,
    zeta_modes,
)
from qlzero.scalars import qpow, qq_int
from qlzero.tensor import MINUS, PLUS, TensorPoly
from qlzero.windows import Window


def test_zeta_mode_labels():
    # single slot: plus at mode 0 sits at root mode 0, minus at -1
    assert zeta_modes((PLUS,), (0,)) == (0,)
    assert zeta_modes((MINUS,), (0,)) == (-1,)
    assert disorder((0, -2)) == 0 and disorder((-2, 0)) == 2


def test_already_admissible_fixed_point():
    rs = RewriteSystem(2, 3)
    x = TensorPoly.monomial((PLUS, PLUS), (0, -1))
    nf = rs.normal_form(x)
    assert nf.terms and nf == rs.normal_form(x)


def test_equal_sign_pair_reorders():
    rs = RewriteSystem(2, 4)
    x = TensorPoly.monomial((PLUS, PLUS), (-1, -2))
    nf = rs.normal_form(x)
    assert len(nf.terms) == 1
    eps, n, c = nf.terms[0]
    assert eps == (PLUS, PLUS) and c == qq_int(1)
    assert disorder(n) == 0


def test_mixed_pair_rewrites_to_vacuum():
    rs = RewriteSystem(2, 3)
    nf = rs.normal_form(TensorPoly.monomial((PLUS, MINUS), (0, 0)))
    assert nf.terms == [((), (), qq_int(-1) * qpow(1))]


def test_normal_form_convenience_and_idempotence():
    x = TensorPoly.monomial((MINUS, PLUS), (0, -1))
    nf = normal_form(x)
    assert isinstance(nf, NormalForm)
    # idempotent through the module-level entry point as well
    back = {}
    for eps, n, c in nf.terms:
        N = len(eps)
        m = tuple((n[j] + (1 - eps[j]) // 2 - 2 * (N - 1 - j)) // 2 for j in range(N))
        back[(eps, m)] = c
    assert normal_form(back).terms == nf.terms


def test_positive_mode_rejected():
    rs = RewriteSystem(2, 2)
    with pytest.raises(ValueError):
        rs.normal_form(TensorPoly.monomial((PLUS, MINUS), (1, -1)))


def test_linearity_of_reduction():
    rs = RewriteSystem(2, 3)
    x = TensorPoly.monomial((PLUS, MINUS), (0, -1))
    y = TensorPoly.monomial((MINUS, PLUS), (0, -1), qpow(2))
    lhs = rs.normal_form(x + y)
    a = rs.reduce({((PLUS, MINUS), (0, -1)): qq_int(1)})
    b = rs.reduce({((MINUS, PLUS), (0, -1)): qpow(2)})
    merged = dict(a)
    for k, v in b.items():
        merged[k] = merged.get(k, qq_int(0)) + v
    merged = {k: v for k, v in merged.items() if v}
    assert lhs == rs.normal_form(merged)


def test_soundness_and_completeness_small():
    rep = rewriter_soundness_check(2, Window(2, -2))
    assert rep.ok, rep.lines()
    rep = rewriter_completeness_check(2, Window(2, -3))
    assert rep.ok, rep.lines()
