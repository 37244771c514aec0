"""Acceptance gate: one check per criterion, at the stated sizes, with a
printed pass/fail line each.  Everything is exact (zero tolerance).  The
criteria run through `cli.run_suite` on one kernel table, as
`qlzero check` runs its jobs, so each relation window and symmetrization
stream is built once for the module; criteria 7, 9 and 10 take their
windows and streams from the same table.  Three checks sample:
`affine.inverse` takes the first third of the window monomials,
`rhosg.far` every 8th monomial, and `rewriter.idempotent` 6 cells x 4
symbols.  Every other check covers every window monomial or element, and
fusion compatibility runs at two, three and four slots.
"""

from qlzero.cli import run_suite
from qlzero.fusion import rhof_check
from qlzero.kernel import (EXCHANGE, FAMILIES, KernelTable, iter_hec_generators,
                           vec_to_tensor)
from qlzero.level0 import e0_apply, f0_apply
from qlzero.locality import DECLARED_MARGINS, LEDGER
from qlzero.report import CheckReport, record, tally
from qlzero.rewrite import rewriter_completeness_check, rewriter_soundness_check
from qlzero.scalars import qpow

TABLE = KernelTable()

# the checks that compare nothing at the criteria's sizes: braid and
# Yang-Baxter need three slots, far commutation a slot off the pair, and
# the quotient Serre block is written at two slots only
EMPTY_AT_THESE_SIZES = {"hecke.braid.S.N2", "hecke.braid.G.N2", "hecke.ybe.N2",
                        "affine.far.N2", "rhosg.far.N2", "chevalley.serre.N3"}


def _jobs(rep: CheckReport, jobs) -> CheckReport:
    """rep extended by the reports of `qlzero check` jobs (suite, n,
    window[, p]), each run on TABLE."""
    for suite, *cfg in jobs:
        rep.extend(run_suite(suite, dict(zip(("n", "window", "p"), cfg)), TABLE))
    return rep


def _finish(tag: str, rep: CheckReport):
    skipped = {r.name for r in rep.results if r.status == "skipped"}
    ok = rep.ok and skipped <= EMPTY_AT_THESE_SIZES
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({rep.summary()})")
    for line in rep.lines():
        print("   ", line)
    assert rep.ok, f"{tag} failed"
    assert skipped <= EMPTY_AT_THESE_SIZES, f"{tag}: nothing compared in {skipped}"


def test_criterion_01_hecke_suite():
    rep = _jobs(CheckReport("criterion 1: Hecke layer"),
                [("hecke", n, "-4..0") for n in (2, 3, 4)]
                + [("hecke", n, "-1..0") for n in (5, 6)] + [("lemmas",)])
    _finish("1 (Hecke relations, R-matrix, exchange rules)", rep)


def test_criterion_02_affine_hecke_suite():
    rep = _jobs(CheckReport("criterion 2: affine Hecke layer"),
                [("affine-hecke", n, "-4..0", p)
                 for p in ("q3", "q4", "q5") for n in (2, 3, 4)])
    _finish("2 (commuting family relations at three scales)", rep)


def test_criterion_03_exchange_identity():
    rep = _jobs(CheckReport("criterion 3: twisted-generator exchange identity"),
                [("rhosg", n, "-4..0", p) for p in ("q4", "q3") for n in (2, 3)]
                + [("rhosg", 4, "-4..0", "q3")])
    _finish("3 (exchange identity, both generators, generic scale)", rep)


def test_criterion_04_normal_ordering_membership():
    rep = _jobs(CheckReport("criterion 4: normal-ordering membership"),
                [("prop8", 2, "-3..0"), ("prop8", 3, "-2..0")])
    _finish("4 (root symmetrizations in the exchange kernel + control)", rep)


def test_criterion_05_span_equality():
    rep = _jobs(CheckReport("criterion 5: span equality"),
                [("prop9", 2, "-4..0"), ("prop9", 3, "-3..0")])
    _finish("5 (commutation vs exchange spans)", rep)


def test_criterion_06_fusion_compatibility():
    # the N=2 job adds the q^3 control
    rep = _jobs(CheckReport("criterion 6: fusion compatibility"),
                [("rhof", n, "-4..0") for n in (2, 3, 4)])
    _finish("6 (fusion holds at q^4, fails at q^3)", rep)


def _well_defined(rep: CheckReport, N: int, depth: int):
    """E0 and F0 carry every exchange generator into the kernel, so they
    act on the quotient at all."""
    p, kb = qpow(4), TABLE.get(N, depth, EXCHANGE)

    def images(vec):
        g = vec_to_tensor(vec, N)
        return (op(g, p) for op in (e0_apply, f0_apply))

    n, bad, seconds = tally(img and not kb.member(img)
                            for vec, _tag in iter_hec_generators(N, depth)
                            for img in images(vec))
    record(rep, f"quotient.welldefined.N{N}",
           "E0, F0 map the exchange generators into the kernel",
           n, bad, f"{n} images, {bad} outside", seconds)


def test_criterion_07_quotient_relations():
    rep = CheckReport("criterion 7: quotient relations")
    for n, depth in ((2, 4), (3, 3)):
        _well_defined(rep, n, depth)
        _jobs(rep, [("chevalley", n, f"-{depth}..0")])
    _finish("7 (defining relations on the quotient)", rep)


def test_criterion_08_characters():
    rep = _jobs(CheckReport("characters d<=6"), [("characters",)])
    _finish("8 (graded dimensions vs level-1 oracle, degrees <= 6)", rep)


def test_criterion_09_rewriter():
    rep = CheckReport("criterion 9: rewriter")
    for n, depth in ((2, 3), (3, 2)):
        rep.extend(rewriter_soundness_check(n, TABLE.get(n, depth, EXCHANGE),
                                            TABLE.get(n, depth, FAMILIES),
                                            TABLE.stream(n, depth)))
    for n, depth in ((2, 4), (3, 3)):
        rep.extend(rewriter_completeness_check(n, TABLE.get(n, depth, FAMILIES),
                                               TABLE.stream(n, depth)))
    _finish("9 (rewrite rules certified; counts equal quotient ranks)", rep)


def test_criterion_10_locality_ledger():
    # the ledger is process-wide: run a fusion check so that the series
    # generators are observed even when this test runs alone
    assert rhof_check(2, TABLE.get(2, 2, FAMILIES)).ok
    observed = set(DECLARED_MARGINS) <= set(LEDGER.observed)
    ok = observed and LEDGER.ok
    print(f"\nACCEPTANCE 10 (locality margins): {'PASS' if ok else 'FAIL'}"
          f" ({LEDGER.summary()})")
    assert observed, LEDGER.observed
    assert LEDGER.ok, LEDGER.violations
