import pytest

from qlzero.kernel import (
    KernelBasis,
    hec_generator,
    iter_ab_relations,
    iter_hec_generators,
    kernel_build,
    prop8_check,
    prop9_check,
    sector_caps,
    symbol_grade,
    tensor_to_vec,
)
from qlzero.rewrite import RewriteSystem
from qlzero.scalars import qpow, qq_int
from qlzero.tensor import MINUS, PLUS, TensorPoly
from qlzero.windows import Window


def test_grades():
    assert symbol_grade(((PLUS,), (0,))) == (0, 1)
    assert symbol_grade(((MINUS,), (0,))) == (1, -1)
    assert symbol_grade(((), ())) == (0, 0)
    assert symbol_grade(((PLUS, MINUS), (0, 0))) == (0, 0)


def test_single_slot_kernel_empty():
    kb = kernel_build(1, Window(1, -3))
    assert kb.rank() == 0


def test_generator_is_member_and_eigenline():
    kb = kernel_build(2, Window(2, -2), families=("HEC", "HWT"))
    g = hec_generator((PLUS, PLUS), (0, 0), 1)
    assert kb.member(g)[0]
    # that generator is a nonzero multiple of the like-sign top symbol, so
    # the symbol itself is in the exchange window
    x = TensorPoly.monomial((PLUS, PLUS), (0, 0))
    assert kb.member(x)[0]


def test_nonmember_with_residual():
    kb = kernel_build(2, Window(2, -2), families=("HEC", "HWT"))
    x = TensorPoly.monomial((PLUS, MINUS), (0, 0))
    ok, res = kb.member(x)
    assert not ok and res


def test_member_linearity_and_certificates():
    kb = kernel_build(2, Window(2, -2), families=("HEC", "HWT"))
    g1 = hec_generator((PLUS, MINUS), (0, -1), 1)
    g2 = hec_generator((MINUS, PLUS), (-1, -1), 1)
    combo = dict(g1)
    for s, c in g2.items():
        combo[s] = combo.get(s, qq_int(0)) + c * qpow(2)
    combo = {s: c for s, c in combo.items() if c}
    ok, res, cert = kb.member(combo, want_cert=True)
    assert ok and not res and cert
    # the certificate reproduces the vector over the stored generators
    # (validated internally by the reduction; spot-check its support tags)
    assert all(isinstance(k, str) for k in cert)


def test_full_families_rank_below_ambient():
    kb = kernel_build(2, Window(2, -3))
    assert kb.sectors == (2, 0)
    assert 0 < kb.rank() < kb.ambient_dimension()
    assert kb.provenance["HEC"] > 0 and kb.provenance["FUS"] > 0


def test_fusion_identifies_vacuum():
    kb = kernel_build(2, Window(2, -3))
    x = TensorPoly.monomial((PLUS, MINUS), (0, 0))
    vac = TensorPoly.monomial((), (), qpow(1))
    ok, _res = kb.member(tensor_to_vec(x) | tensor_to_vec(vac))
    assert ok  # x_{+-,00} + q*vacuum is exactly the fusion relation


def test_member_rejects_out_of_window():
    kb = kernel_build(2, Window(2, -2), families=("HEC", "HWT"))
    with pytest.raises(ValueError):
        kb.member(TensorPoly.monomial((PLUS, MINUS), (-4, -4)))
    with pytest.raises(ValueError):
        kb.member(TensorPoly.monomial((PLUS, MINUS), (1, -1)))
    with pytest.raises(ValueError):
        kb.member(TensorPoly.monomial((PLUS, MINUS, PLUS), (0, 0, 0)))


def test_window_validation():
    with pytest.raises(ValueError):
        kernel_build(2, Window(2, -2, 1))
    with pytest.raises(ValueError):
        kernel_build(2, Window(3, -2))


def test_persistence_round_trip():
    kb = kernel_build(2, Window(2, -3))
    text = kb.save_text()
    kb2 = KernelBasis.load_text(text)
    assert kb2.save_text() == text
    assert kb2.rank() == kb.rank()
    x = TensorPoly.monomial((PLUS, MINUS), (0, 0))
    assert kb.member(x)[0] == kb2.member(x)[0]


def test_persistence_keeps_sector_caps():
    # the sector-1 window of the N=3 fusion chain is one degree shallower;
    # a loaded kernel must keep rejecting what the built one rejects
    kb = kernel_build(3, Window(3, -3))
    assert kb.caps == {3: 3, 1: 2}
    kb2 = KernelBasis.load_text(kb.save_text())
    assert list(kb2.caps.items()) == list(kb.caps.items())
    assert kb2.families == kb.families and kb2.max_degree == 3
    deep = {((PLUS,), (-3,)): qq_int(1)}
    for k in (kb, kb2):
        with pytest.raises(ValueError):
            k.member(deep)
    inside = {((PLUS,), (-2,)): qq_int(1)}
    assert kb.member(inside) == kb2.member(inside)


def test_load_rejects_other_formats():
    text = kernel_build(2, Window(2, -2), families=("HEC", "HWT")).save_text()
    body = text.split("\n", 1)[1]
    old = ('# qlzero-kernel {"families": ["HEC", "HWT"], "generators": 6, '
           '"max_degree": 2, "provenance": {"HEC": 6}, "sectors": [2]}\n')
    for bad in (old + body, text.replace('"format": 2', '"format": 3', 1),
                body, ""):
        with pytest.raises(ValueError):
            KernelBasis.load_text(bad)


def test_kernel_and_rewriter_share_the_window():
    # one window check: both spans reject a positive mode, a sector off the
    # chain and a degree above the cap, and agree on membership inside it
    kb = kernel_build(2, Window(2, -2))
    rs = RewriteSystem(2, 2)
    assert kb.caps == rs.caps == {2: 2, 0: 2}
    outside = [((PLUS, MINUS), (1, -1)),
               ((PLUS,), (0,)),
               ((PLUS, MINUS, PLUS), (0, 0, 0)),
               ((PLUS, MINUS), (-2, -1))]
    for sym in outside:
        for span in (kb, rs):
            with pytest.raises(ValueError):
                span.reduce({sym: qq_int(1)})
    for sym in (((MINUS, PLUS), (-1, -1)), ((PLUS, PLUS), (0, -2)), ((), ())):
        vec = {sym: qq_int(1)}
        assert kb.member(vec)[0] == (not rs.reduce(vec))


def test_ab_span_equals_exchange_span():
    def rank_cells(*families):
        span = KernelBasis(sector_caps(2, 3, fusion=False), certificates=False)
        return span.extend(*families).ranks()

    ab = rank_cells(iter_ab_relations)
    hec = rank_cells(iter_hec_generators)
    union = rank_cells(iter_ab_relations, iter_hec_generators)
    assert ab and ab == hec == union


def test_prop9_and_prop8_small():
    assert prop9_check(2, Window(2, -3)).ok
    rep = prop8_check(2, Window(2, -2))
    assert rep.ok, rep.lines()


def test_prop9_degenerate_window():
    rep = prop9_check(2, Window(2, 0))
    assert rep.ok  # single-monomial window: both spans trivial


def test_kernel_stability_under_operators():
    # the relation window is carried into itself by the slot operator and by
    # both twisted generators (the exchange identity at work); a single Y
    # factor is NOT claimed to preserve it - only the combined identity and
    # the far-pair commutation are consequences of the affine relations
    from qlzero.hecke import S_apply
    from qlzero.level0 import e0_apply, f0_apply
    from qlzero.scalars import qpow
    from qlzero.kernel import vec_to_tensor

    kb = kernel_build(2, Window(2, -3), families=("HEC", "HWT"))
    p = qpow(4)
    checked = 0
    for vec, tag in iter_hec_generators(2, 3):
        g = vec_to_tensor(vec, 2)
        assert kb.member(S_apply(g, 1))[0], tag
        img = e0_apply(g, p)
        if img:
            assert kb.member(img)[0], tag
        img = f0_apply(g, p)
        if img:
            assert kb.member(img)[0], tag
        checked += 1
    assert checked > 0


def test_kernel_stability_far_y_pairs():
    # [G_{1,2}, Y_3] = 0 makes the transposed far Y carry the j=1 exchange
    # family into the window (three slots)
    from qlzero.level0 import hat_y_apply
    from qlzero.scalars import qpow
    from qlzero.kernel import vec_to_tensor

    kb = kernel_build(3, Window(3, -2), families=("HEC", "HWT"))
    p = qpow(4)
    n = bad = 0
    for vec, tag in iter_hec_generators(3, 2):
        if ".j1." not in tag:
            continue
        g = vec_to_tensor(vec, 3)
        y = hat_y_apply(g, 3, p, -1)
        n += 1
        if not kb.member(y)[0]:
            bad += 1
    assert n > 0 and bad == 0, (bad, n)
