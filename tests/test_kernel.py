import hashlib
from collections import Counter

import pytest

from qlzero import kernel
from qlzero.kernel import (
    EXCHANGE,
    KernelBasis,
    KernelTable,
    SymmetrizationStream,
    full_window,
    hec_generator,
    iter_ab_relations,
    iter_fus_generators,
    iter_hec_generators,
    kernel_build,
    prop8_check,
    prop9_check,
    sector_caps,
    symbol_grade,
    symbol_key,
    tensor_to_vec,
)
from qlzero.rewrite import RewriteSystem, rewrite_key, rewriter_soundness_check
from qlzero.scalars import RatFuncQ, qpow, qq_int
from qlzero.tensor import MINUS, PLUS, TensorPoly


def test_grades():
    assert symbol_grade(((PLUS,), (0,))) == (0, 1)
    assert symbol_grade(((MINUS,), (0,))) == (1, -1)
    assert symbol_grade(((), ())) == (0, 0)
    assert symbol_grade(((PLUS, MINUS), (0, 0))) == (0, 0)


def test_single_slot_kernel_empty():
    kb = kernel_build(1, 3)
    assert kb.rank() == 0


def test_generator_is_member_and_eigenline():
    kb = kernel_build(2, 2, ("HEC", "HWT"))
    g = hec_generator((PLUS, PLUS), (0, 0), 1)
    assert kb.member(g)
    # that generator is a nonzero multiple of the like-sign top symbol, so
    # the symbol itself is in the exchange window
    x = TensorPoly.monomial((PLUS, PLUS), (0, 0))
    assert kb.member(x)


def test_nonmember_with_residual():
    kb = kernel_build(2, 2, ("HEC", "HWT"))
    x = TensorPoly.monomial((PLUS, MINUS), (0, 0))
    assert not kb.member(x) and kb.reduce(x)


def combination(cert, generators):
    """sum_g cert[g] * generators[g], recomputed here from scratch."""
    acc = {}
    for tag, c in cert.items():
        for sym, v in generators[tag].items():
            acc[sym] = acc.get(sym, qq_int(0)) + c * v
    return {s: v for s, v in acc.items() if v}


def test_member_linearity_and_certificates():
    kb = kernel_build(2, 2, ("HEC", "HWT"))
    g1 = hec_generator((PLUS, MINUS), (0, -1), 1)
    g2 = hec_generator((MINUS, PLUS), (-1, -1), 1)
    combo = dict(g1)
    for s, c in g2.items():
        combo[s] = combo.get(s, qq_int(0)) + c * qpow(2)
    combo = {s: c for s, c in combo.items() if c}
    assert kb.member(combo) and not kb.reduce(combo)
    cert = kb.certificate(combo)
    assert cert
    # the certificate reproduces the vector over the named generators
    gens = {tag: vec for vec, tag in iter_hec_generators(2, 2)}
    assert set(cert) <= set(gens)
    assert combination(cert, gens) == combo


def test_loaded_kernel_certifies_with_generator_tags():
    kb = KernelBasis.load_text(kernel_build(2, 3).save_text())
    x = TensorPoly.monomial((PLUS, PLUS), (0, 0))
    cert = kb.certificate(x)
    assert cert and all(tag.startswith(("HEC.", "FUS.")) for tag in cert)
    gens = {tag: vec for fam in (iter_hec_generators, iter_fus_generators)
            for n, cap in kb.caps.items() if n >= 2 for vec, tag in fam(n, cap)}
    assert combination(cert, gens) == tensor_to_vec(x)


def test_certificate_non_member_and_spans_without_families():
    kb = kernel_build(2, 2, ("HEC", "HWT"))
    assert kb.certificate(TensorPoly.monomial((PLUS, MINUS), (0, 0))) is None
    assert kb.certificate({}) == {}
    with pytest.raises(ValueError):
        kb.certificate(TensorPoly.monomial((PLUS, MINUS), (1, -1)))
    for span in (RewriteSystem(SymmetrizationStream(2, 2)), KernelBasis(sector_caps(2, 2))):
        with pytest.raises(ValueError):
            span.certificate(TensorPoly.monomial((PLUS, PLUS), (0, 0)))


def test_full_families_rank_below_ambient():
    kb = kernel_build(2, 3)
    assert kb.sectors == (2, 0)
    assert 0 < kb.rank() < kb.ambient_dimension()
    assert kb.provenance["HEC"] > 0 and kb.provenance["FUS"] > 0


def test_fusion_identifies_vacuum():
    kb = kernel_build(2, 3)
    x = TensorPoly.monomial((PLUS, MINUS), (0, 0))
    vac = TensorPoly.monomial((), (), qpow(1))
    # x_{+-,00} + q*vacuum is exactly the fusion relation
    assert kb.member(tensor_to_vec(x) | tensor_to_vec(vac))


def test_member_rejects_out_of_window():
    kb = kernel_build(2, 2, ("HEC", "HWT"))
    with pytest.raises(ValueError):
        kb.member(TensorPoly.monomial((PLUS, MINUS), (-4, -4)))
    with pytest.raises(ValueError):
        kb.member(TensorPoly.monomial((PLUS, MINUS), (1, -1)))
    with pytest.raises(ValueError):
        kb.member(TensorPoly.monomial((PLUS, MINUS, PLUS), (0, 0, 0)))


def test_window_validation():
    with pytest.raises(ValueError):
        kernel_build(2, -1)


def test_persistence_round_trip():
    kb = kernel_build(2, 3)
    text = kb.save_text()
    kb2 = KernelBasis.load_text(text)
    assert kb2.save_text() == text
    assert kb2.rank() == kb.rank()
    x = TensorPoly.monomial((PLUS, MINUS), (0, 0))
    assert kb.member(x) == kb2.member(x)


# SHA-256 of the (N=2, D=3, HEC,FUS,HWT) kernel file; its rows carry both
# q-monomial and cyclotomic denominators.  Speed work must keep it fixed.
GOLDEN_N2_D3_FULL = "e0189cb1073b80da62c5c1407e2399a452e6c9c95bb8651225f25fbdfeca0321"


def test_save_text_matches_golden_digest():
    text = kernel_build(2, 3, ("HEC", "FUS", "HWT")).save_text()
    dens = [row.split(" / ")[1] for row in text.splitlines() if " / " in row]
    assert any(" + " not in d for d in dens) and any(" + " in d for d in dens)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_N2_D3_FULL


@pytest.mark.parametrize("N,depth", [(2, 4), (3, 3), (3, 4), (4, 2)])
def test_full_window_extends_the_exchange_window(N, depth):
    # at N=4 the extension adds exchange generators at sector 2 as well
    direct = kernel_build(N, depth)
    exch = kernel_build(N, depth, EXCHANGE)
    before = exch.save_text()
    derived = full_window(exch)
    assert derived.save_text() == direct.save_text()
    assert derived.n_generators == direct.n_generators
    assert derived.provenance == direct.provenance
    assert exch.save_text() == before


def test_full_window_needs_the_exchange_window():
    for wrong in (kernel_build(2, 2), kernel_build(2, 2, ("HEC",))):
        with pytest.raises(ValueError):
            full_window(wrong)


def test_copy_leaves_the_original_unchanged():
    kb = kernel_build(2, 3, EXCHANGE)
    text = kb.save_text()
    cp = kb.copy()
    assert cp.save_text() == text
    # a unit vector at a non-pivot column of a stored row: adding it
    # eliminates that column from the copy's rows
    basis = next(b for b in cp.cells.values()
                 if any(len(r) > 1 for r in b.pivots.values()))
    row = next(r for r in basis.pivots.values() if len(r) > 1)
    col = next(c for c in row if c not in basis.pivots)
    assert cp.add({col: qq_int(1)}, "X.unit")
    assert cp.save_text() != text and kb.save_text() == text
    assert kb.n_generators == cp.n_generators - 1 and "X" not in kb.provenance


def test_kernel_table_hands_out_each_span_once():
    table = KernelTable()
    full = table.get(2, 2, ("HEC", "FUS", "HWT"))
    exch = table.get(2, 2, ("HWT", "HEC"))
    assert table.get(2, 2, ("HEC", "FUS", "HWT")) is full
    assert table.get(2, 2, EXCHANGE) is exch
    assert exch.caps == {2: 2} and full.caps == {2: 2, 0: 2}
    assert full.save_text() == kernel_build(2, 2).save_text()


def test_persistence_keeps_sector_caps():
    # the sector-1 window of the N=3 fusion chain is one degree shallower;
    # a loaded kernel must keep rejecting what the built one rejects
    kb = kernel_build(3, 3)
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
    assert kb.reduce(inside) == kb2.reduce(inside)


def test_load_rejects_other_formats():
    text = kernel_build(2, 2, ("HEC", "HWT")).save_text()
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
    kb = kernel_build(2, 2)
    rs = RewriteSystem(SymmetrizationStream(2, 2))
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
        assert kb.member(vec) == (not rs.reduce(vec))


def test_ab_span_equals_exchange_span():
    def rank_cells(*families):
        span = KernelBasis(sector_caps(2, 3, fusion=False))
        return span.extend(*families).ranks()

    ab = rank_cells(iter_ab_relations)
    hec = rank_cells(iter_hec_generators)
    union = rank_cells(iter_ab_relations, iter_hec_generators)
    assert ab and ab == hec == union


def test_prop9_and_prop8_small():
    assert prop9_check(2, kernel_build(2, 3, EXCHANGE)).ok
    rep = prop8_check(2, kernel_build(2, 2, ("HEC", "HWT")), SymmetrizationStream(2, 2))
    assert rep.ok, rep.lines()
    # each family reports its own time, not the time of the whole loop
    secs = {r.name: r.seconds for r in rep.results}
    assert secs["prop8.equal_pair.N2"] != secs["prop8.mixed_pair.N2"]


# SHA-256 of the (tag, vector) sequence of iter_ab_relations at (N, depth):
# the stream that prop8 and the rewriter judge.  Speed work must keep it.
GOLDEN_AB_STREAMS = {
    (2, 4): "fcad95bdee253c3d1f0c868aa4ff0456bee15882861c03bee91d291d7876f39b",
    (2, 3): "5ce9542166f77824b3a539c91ab4f658312aabd1770f22fd4c88a90082d95eb0",
}


@pytest.mark.parametrize("N,depth,n_entries,n_classes", [(2, 4, 436, 33), (2, 3, 292, 22)])
def test_symmetrization_stream_is_pinned(N, depth, n_entries, n_classes):
    h = hashlib.sha256()
    for vec, tag in iter_ab_relations(N, depth):
        h.update(tag.encode())
        for sym in sorted(vec, key=symbol_key):
            h.update(f"|{sym}={vec[sym].to_text()}".encode())
        h.update(b"\n")
    assert h.hexdigest() == GOLDEN_AB_STREAMS[N, depth]
    stream = SymmetrizationStream(N, depth)
    assert [(v, t) for v, t, _k in stream.entries] == list(iter_ab_relations(N, depth))
    assert len(stream.entries) == n_entries and len(stream.classes) == n_classes


def proportional(v, u):
    """Whether v = c*u for some c in Q(q), by cross-multiplication."""
    sym = next(iter(u))
    return v.keys() == u.keys() and all(v[s] * u[sym] == u[s] * v[sym] for s in u)


def test_stream_classes_are_exact_scale_classes():
    stream = SymmetrizationStream(2, 4)
    for i, (vec, _tag, k) in enumerate(stream.entries):
        rep = stream.classes[k][0]
        c = stream.scale(i)
        assert {s: c * x for s, x in rep.items()} == vec
    reps = [v for v, _t in stream.classes]
    assert not any(proportional(v, u) for i, v in enumerate(reps) for u in reps[:i])


def test_scale_classes_split_on_one_coefficient(monkeypatch):
    # one class for v and its multiples by a non-monomial factor and by an
    # integer times a q-power; a copy of v with one coefficient doubled is
    # a class of its own
    v = next(vec for vec, _tag in iter_ab_relations(2, 3) if len(vec) > 1)
    c1, c2 = RatFuncQ((1, 0, 1), (0, 1)), qq_int(-2) * qpow(3)
    sym = next(iter(v))
    entries = [(v, "A.v"), ({s: c1 * x for s, x in v.items()}, "A.c1"),
               ({**v, sym: v[sym] * qq_int(2)}, "A.w"),
               ({s: c2 * x for s, x in v.items()}, "A.c2")]
    monkeypatch.setattr(kernel, "iter_ab_relations", lambda N, depth: iter(entries))
    stream = SymmetrizationStream(2, 3)
    assert [k for _v, _t, k in stream.entries] == [0, 0, 1, 0]
    assert [stream.scale(i) for i in range(4)] == [qq_int(1), c1, qq_int(1), c2]
    stream.entries[1] = (entries[2][0], "A.c1", 0)
    with pytest.raises(ArithmeticError):
        stream.scale(1)


def test_a_perturbed_entry_fails_alone(monkeypatch):
    # an entry of a class of several, with one coefficient doubled: it is
    # no multiple of its class and not in the kernel, so prop8 and the
    # rewriter's soundness each report exactly one failure
    kb = kernel_build(2, 4, EXCHANGE)
    stream = SymmetrizationStream(2, 4)
    sizes = Counter(k for _v, _t, k in stream.entries)
    i, sym = next((i, s) for i, (vec, _tag, k) in enumerate(stream.entries)
                  if sizes[k] > 1 and len(vec) > 1
                  for s in vec if not kb.member({s: qq_int(1)}))
    entries = list(iter_ab_relations(2, 4))
    vec, tag = entries[i]
    entries[i] = ({**vec, sym: vec[sym] * qq_int(2)}, tag)
    monkeypatch.setattr(kernel, "iter_ab_relations", lambda N, depth: iter(entries))
    bent = SymmetrizationStream(2, 4)
    assert len(bent.classes) == len(stream.classes) + 1
    clean = {r.name: r for r in prop8_check(2, kb, stream).results}
    res = {r.name: r for r in prop8_check(2, kb, bent).results}
    hit = "prop8.equal_pair.N2" if tag.startswith("A.") else "prop8.mixed_pair.N2"
    for name in ("prop8.equal_pair.N2", "prop8.mixed_pair.N2"):
        assert (res[name].status, res[name].residual) == (
            ("fail", 1) if name == hit else ("pass", 0))
        assert res[name].detail == clean[name].detail
    assert clean[hit].status == "pass"
    (ab, fus) = rewriter_soundness_check(2, kb, kernel_build(2, 4), bent).results
    assert (ab.status, ab.residual, ab.detail) == ("fail", 1, "436 rules with certificates")
    assert fus.status == "pass"


def test_checks_reject_a_stream_of_another_window():
    kb = kernel_build(2, 3, EXCHANGE)
    for stream in (SymmetrizationStream(2, 2), SymmetrizationStream(3, 0)):
        with pytest.raises(ValueError):
            prop8_check(2, kb, stream)
    table = KernelTable()
    assert table.stream(2, 2) is table.stream(2, 2)


def test_rewrite_system_feeds_each_sector_its_own_stream(monkeypatch):
    # at N=4 the chain has a second sector with relations; the sector-4
    # stream is left empty here (it is large), sector 2 gets its own
    calls = []
    real = kernel.iter_ab_relations

    def ab(N, depth):
        calls.append((N, depth))
        return real(N, depth) if N == 2 else iter(())

    monkeypatch.setattr(kernel, "iter_ab_relations", ab)
    rs = RewriteSystem(SymmetrizationStream(4, 2))
    assert calls == [(4, 2), (2, 0)] and rs.caps == {4: 2, 2: 0, 0: 0}
    direct = KernelBasis(rs.caps, key=rewrite_key).extend(ab, iter_fus_generators)
    assert {g: b.pivots for g, b in rs.cells.items()} == {
        g: b.pivots for g, b in direct.cells.items()}
    assert any(n == 2 for n in {len(eps) for grade in rs.cells
                                for eps, _m in rs.cells[grade].pivots})


def test_prop9_fails_on_an_exchange_window_missing_generators():
    # negative control: the caps of depth 3, but the exchange generators of
    # degree 3 left out; the detail still reports the true ranks
    full = kernel_build(2, 3, EXCHANGE)
    thin = KernelBasis(sector_caps(2, 3, fusion=False), EXCHANGE)
    for vec, tag in iter_hec_generators(2, 2):
        thin.add(vec, tag)
    assert thin.caps == full.caps and 0 < thin.rank() < full.rank()
    (res,) = prop9_check(2, thin).results
    assert res.name == "prop9.spans.N2" and res.status == "fail"
    assert res.detail == (f"ranks: commutation {full.rank()}, "
                          f"exchange {thin.rank()}, union {full.rank()}")
    # and with one vector too many, the union takes it in
    thick = full.copy()
    assert thick.add({((PLUS, MINUS), (0, 0)): qq_int(1)}, "X.unit")
    (res,) = prop9_check(2, thick).results
    assert res.status == "fail" and res.detail == (
        f"ranks: commutation {full.rank()}, exchange {full.rank() + 1}, "
        f"union {full.rank() + 1}")
    with pytest.raises(ValueError):
        prop9_check(2, kernel_build(2, 3))


def test_prop9_degenerate_window():
    rep = prop9_check(2, kernel_build(2, 0, EXCHANGE))
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

    kb = kernel_build(2, 3, ("HEC", "HWT"))
    p = qpow(4)
    checked = 0
    for vec, tag in iter_hec_generators(2, 3):
        g = vec_to_tensor(vec, 2)
        assert kb.member(S_apply(g, 1)), tag
        img = e0_apply(g, p)
        if img:
            assert kb.member(img), tag
        img = f0_apply(g, p)
        if img:
            assert kb.member(img), tag
        checked += 1
    assert checked > 0


def test_kernel_stability_far_y_pairs():
    # [G_{1,2}, Y_3] = 0 makes the transposed far Y carry the j=1 exchange
    # family into the window (three slots)
    from qlzero.level0 import hat_y_apply
    from qlzero.scalars import qpow
    from qlzero.kernel import vec_to_tensor

    kb = kernel_build(3, 2, ("HEC", "HWT"))
    p = qpow(4)
    n = bad = 0
    for vec, tag in iter_hec_generators(3, 2):
        if ".j1." not in tag:
            continue
        g = vec_to_tensor(vec, 3)
        y = hat_y_apply(g, 3, p, -1)
        n += 1
        if not kb.member(y):
            bad += 1
    assert n > 0 and bad == 0, (bad, n)
