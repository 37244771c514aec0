import pytest

from qlzero.kernel import specialize_adjacent
from qlzero.laurent import LaurentPoly, lp_insert_var, lp_swap
from qlzero.report import CheckReport, CheckResult, check, record, tally
from qlzero.scalars import qq_int
from qlzero.tensor import MINUS, PLUS, TensorPoly, e_op
from qlzero.windows import Window, cone_cell, cone_exponents
from qlzero.locality import LocalityLedger


def test_window_exponents_and_bounds():
    w = Window(2, -2)
    assert len(list(w.exponents())) == 9
    assert w.depth == 2
    with pytest.raises(ValueError):
        Window(2, 1, 0)


def test_cone_cells():
    assert cone_cell(2, 0) == [(0, 0)]
    assert cone_cell(2, -2) == [(-2, 0), (-1, -1), (0, -2)]
    assert cone_cell(0, 0) == [()]
    assert cone_cell(0, -1) == []
    assert len(cone_exponents(3, 2)) == 1 + 3 + 6


def test_symbol_series_window_and_extract():
    X = TensorPoly.window((PLUS, MINUS), 1)
    # three symbols: modes (0,0), (-1,0), (0,-1)
    assert len(X.terms) == 3
    vec = X.extract_all()[(1, 0)]  # value z1^1 belongs to mode (-1, 0)
    assert vec == {((PLUS, MINUS), (-1, 0)): qq_int(1)}


def test_symbol_series_ops_touch_values_only():
    X = TensorPoly.window((PLUS, MINUS), 1)
    Y = X.map_coeffs(lambda p: lp_swap(p, 1, 2))
    assert set(Y.terms) == set(X.terms)
    Z = X.mul_poly(LaurentPoly.var(2, 1))
    tot = {sum(e) for e in Z.extract_all()}
    assert tot == {1, 2}
    W = specialize_adjacent(X, 1)
    assert W.nvars == 1
    V = W.map_coeffs(lambda p: lp_insert_var(p, 1), nvars=2)
    assert V.nvars == 2


def test_symbol_series_slot_ops_move_symbols():
    # the raising operator at the only slot (no tail, so no q-power) moves
    # every symbol to the flipped string and keeps its mode and value
    X = TensorPoly.window((MINUS,), 1)
    Y = e_op(X, 1)
    assert all(eps == (PLUS,) for (eps, _m) in Y.terms)
    assert {m: p for (_eps, m), p in Y.terms.items()} \
        == {m: p for (_eps, m), p in X.terms.items()}


def test_report_roundtrip_and_summary():
    rep = CheckReport("demo")
    check(rep, "x.one", "relation", [0], "ok")
    rep.add(CheckResult("x.two", "relation", "fail", "boom", 3))
    assert not rep.ok and rep.n_fail == 1
    lines = rep.lines()
    assert lines[0].startswith("PASS") and lines[1].startswith("FAIL")
    assert "1/2" in rep.summary() or "2" in rep.summary()
    out = rep.to_jsonl().splitlines()
    assert len(out) == 2


def test_check_verdict_from_the_residuals():
    rep = CheckReport("demo")
    check(rep, "x.empty", "relation", iter(()))
    check(rep, "x.two_bad", "relation", (r for r in (1, 0, 5)))
    check(rep, "x.clean", "relation", [0, False, 0])
    got = {r.name: (r.status, r.residual) for r in rep.results}
    assert got == {"x.empty": ("skipped", 0), "x.two_bad": ("fail", 2),
                   "x.clean": ("pass", 0)}
    assert rep.summary() == "demo: 1/3 checks passed, 1 skipped"
    checked, bad, seconds = tally([0, [1], "", {}, True, 0])
    assert (checked, bad) == (6, 2) and seconds >= 0.0
    assert tally(iter(()))[:2] == (0, 0)


def test_record_rule_and_int_residual():
    rep = CheckReport("demo")
    record(rep, "x.none_but_bad", "relation", 0, 1)
    record(rep, "x.bool_bad", "relation", 1, True)
    record(rep, "x.bool_ok", "relation", 1, False)
    got = {r.name: (r.status, r.residual) for r in rep.results}
    assert got == {"x.none_but_bad": ("fail", 1), "x.bool_bad": ("fail", 1),
                   "x.bool_ok": ("pass", 0)}
    assert all(type(r.residual) is int for r in rep.results)
    assert '"residual": 1' in rep.to_jsonl() and '"residual": 0' in rep.to_jsonl()


def test_locality_ledger_margins():
    led = LocalityLedger()
    led.record_shift("series_e0", 0)
    assert led.ok
    led.record_shift("series_e0", 2)
    assert not led.ok
    assert "series_e0" in led.summary()
    with pytest.raises(KeyError):
        led.record_shift("G", 0)
