"""The element face of the level-0 generators, and their relation suites.

The twisted generators

    E0 = q^{N-1} sum_j Y_j^{-1} f^{(j)},
    F0 = q^{-(N-1)} sum_j Y_j e^{(j)},     T0 = diag q^{-weight},

are defined on generating-series windows in `series` (the series face).
On mode windows the Y's enter through their transposed matrices (reading
an operator off a generating series transposes it and reverses products).
The transpose is taken in the series basis z^{-m}: a mode vector m indexes
the coefficient of z^{-m}, so this element face is the coefficient
extraction of the series face.  It is computed exactly on cone cells of
fixed total degree, which the Y's preserve.

The suite rhosg_check verifies the exchange identity that makes the twist
consistent: moving E0 through (S - G) reproduces (S - G) times the
partner-swapped combination, exactly, monomial by monomial.  This single
identity pins every order and sign convention above.

The defining relations of the level-0 action are written once, in
`level0_relations`, for any pair of maps (E0, F0): chevalley_check judges
the residuals of the twisted generators modulo the kernel, and
evaluation_module_suite requires those of the scalar twists to vanish.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable

from .affine import Y_poly, y_by_monomial
from .hecke import G_poly, S_apply
from .laurent import LaurentPoly
from .linalg import accumulate
from .report import CheckReport, check, record
from .scalars import QQ_ONE, RatFuncQ, qpow
from .series import P_DEFAULT, TWIST, twisted_sum
from .tensor import TensorPoly, e_op, f_op, sign_strings, t_diag, uq_apply
from .windows import Window, cone_cell


def t0_apply(x: TensorPoly, exponent: int = 1) -> TensorPoly:
    """T0^{exponent}: T0 = diag q^{-weight} is t1^{-1} on every slot (level
    zero)."""
    return t_diag(x, -exponent)


# -- element face (transposed coefficient action) ----------------------------

_Y_IMAGE_CACHE: dict = {}


def _y_transpose_table(nvars: int, j: int, p: RatFuncQ, exponent: int,
                       total: int) -> dict:
    """Transposed Y on one cone cell: {source mode: [(target mode, coeff)]}.

    coeff = [z^{-source}] Y_j^{e} z^{-target}; source modes with a positive
    component are dropped (they die under the highest-weight cut).
    """
    key = (nvars, j, p, exponent, total)
    table = _Y_IMAGE_CACHE.get(key)
    if table is None:
        table = {}
        for m in cone_cell(nvars, total):
            mono = LaurentPoly.monomial(nvars, tuple(-x for x in m))
            img = Y_poly(mono, j, p, exponent)
            for expo, c in img.terms.items():
                src = tuple(-x for x in expo)
                if max(src) <= 0:
                    table.setdefault(src, []).append((m, c))
        _Y_IMAGE_CACHE[key] = table
    return table


def hat_y_apply(x: TensorPoly, j: int, p: RatFuncQ, exponent: int = 1) -> TensorPoly:
    """Transposed Y action on a mode window (modulo positive-mode symbols).

    A mode vector m stands for the coefficient of z^{-m} in the generating
    series (the convention of `TensorPoly.window`), so the symbol at mode mu
    goes to

        sum_m ([z^{-mu}] Y_j^{e} z^{-m}) (symbol at m),

    the transpose of Y in the series basis z^{-m}.  Y preserves the total
    degree, so the sum runs over the cone cell of mu.
    """
    nv = x.nvars
    out_terms = {}
    for e, poly in x.terms.items():
        acc: dict[tuple, RatFuncQ] = {}
        for expo, w in poly.terms.items():
            if max(expo) > 0:
                raise ValueError("transposed action needs non-positive modes")
            accumulate(acc, _y_transpose_table(nv, j, p, exponent, sum(expo))
                       .get(expo, ()), w)
        if acc:
            out_terms[e] = LaurentPoly(nv, acc)
    return TensorPoly(x.arity, out_terms, nvars=nv)


def e0_apply(x: TensorPoly, p: RatFuncQ = P_DEFAULT) -> TensorPoly:
    """The twisted affine lowering generator on a mode window."""
    return twisted_sum(x, "e0", lambda y, j, ex: hat_y_apply(y, j, p, ex))


def f0_apply(x: TensorPoly, p: RatFuncQ = P_DEFAULT) -> TensorPoly:
    """The twisted affine raising generator on a mode window."""
    return twisted_sum(x, "f0", lambda y, j, ex: hat_y_apply(y, j, p, ex))


# -- checks ------------------------------------------------------------------


def rhosg_check(N: int, p: RatFuncQ, window: Window) -> CheckReport:
    """Exact exchange identity between the twisted generators and S - G.

    Both sides of the identity (and its raising-generator mirror) are
    expanded on every sign string and window monomial; the difference must
    vanish identically; each row of it is summed once per monomial, up to
    a q-power (a nonzero scale keeps a zero sum zero).  Far slots are
    checked to commute outright.  Every Y goes through one `y_by_monomial`
    map, so each monomial image is computed once per check.
    """
    rep = CheckReport(f"exchange identity N={N}, p={p!r}")
    monos = list(window.exponents())
    strs = sign_strings(N)
    Y = y_by_monomial(p)

    def exchange(j, op, ex):
        pair = (j, j + 1)
        # lhs - rhs, with op^{(k)} the generator's slot operator:
        #   sum_k op^{(k)} S x . A_k - op^{(k)} x . B_k
        #   - S op^{(j+1)} x . A_j - S op^{(j)} x . A_{j+1}
        #   + op^{(j+1)} x . C_j + op^{(j)} x . C_{j+1},
        # A_k = Y_k^e z^m, B_k = G A_k, C_k = Y_k^e G z^m.  The slot
        # tensors depend on the sign string only and have scalar
        # coefficients: each output string is a row {index into imgs =
        # A_j, A_{j+1}, B_j, B_{j+1}, C_j, C_{j+1}: scalar}, divided by its
        # entry at the highest index (a dressed-slot factor +-q^k) and
        # keyed, so keys are rows up to a q-power.
        keys: dict = {}
        string_keys = []
        for e in strs:
            x = TensorPoly.basis(e, LaurentPoly.one(N))
            sx = S_apply(x, j)
            ox = {k: op(x, k) for k in pair}
            slot = (op(sx, j) - S_apply(ox[j + 1], j),
                    op(sx, j + 1) - S_apply(ox[j], j),
                    -ox[j], -ox[j + 1], ox[j + 1], ox[j])
            rows: dict = {}
            for i, ten in enumerate(slot):
                for out, f in ten.terms.items():
                    rows.setdefault(out, {})[i] = f.coeff((0,) * N)
            own = set()
            for row in rows.values():
                top = row[max(row)].inv()
                key = tuple((i, c * top) for i, c in sorted(row.items()))
                own.add(keys.setdefault(key, len(keys)))
            string_keys.append(own)
        sums = [[(i, None if c == QQ_ONE else c) for i, c in key] for key in keys]
        for m in monos:
            mono = LaurentPoly.monomial(N, m)
            A = [Y(mono, k, ex) for k in pair]
            gm = G_poly(mono, j, j + 1, 1)
            imgs = (A + [G_poly(a, j, j + 1, 1) for a in A]
                    + [Y(gm, k, ex) for k in pair])
            nonzero = []
            for row in sums:
                acc: dict = {}
                for i, c in row:
                    accumulate(acc, imgs[i].terms.items(), c)
                nonzero.append(bool(acc))
            for ks in string_keys:
                yield any(nonzero[k] for k in ks)

    for j in range(1, N):
        for gen, relation, detail in (
                ("e0", "E0 through (S - G) swaps the Y-partners",
                 f"{len(monos)} monomials x {len(strs)} strings"),
                ("f0", "F0 mirror of the exchange identity", "")):
            check(rep, f"rhosg.{gen}.j{j}.N{N}", relation, exchange(j, *TWIST[gen]),
                  detail)

    # far slots commute with both S and G sides
    def far():
        for j in range(1, N):
            for k in range(1, N + 1):
                if k in (j, j + 1):
                    continue
                for m in monos[:: max(1, len(monos) // 8)]:
                    mono = LaurentPoly.monomial(N, m)
                    yield (Y(G_poly(mono, j, j + 1), k, -1)
                           != G_poly(Y(mono, k, -1), j, j + 1))
                for e in strs:
                    x = TensorPoly.basis(e, LaurentPoly.one(N))
                    yield S_apply(f_op(x, k), j) - f_op(S_apply(x, j), k)
    check(rep, f"rhosg.far.N{N}", "far slots commute through the identity", far())
    return rep


_THREE = qpow(2) + QQ_ONE + qpow(-2)          # [3] in the Serre relation
_QDIFF_INV = (qpow(1) - qpow(-1)).inv()


def level0_relations(x: TensorPoly, e0: Callable, f0: Callable):
    """Residuals (lhs - rhs) of the defining relations of U_q(sl_2^) at
    level zero on the window element x, for the pair of maps (e0, f0).

    Yields (block, residuals) in the order
      diagonal: T0 E0 T0^{-1} = q^2 E0, T0 F0 T0^{-1} = q^{-2} F0,
                t1 E0 t1^{-1} = q^{-2} E0, t0 t1 = 1 (level zero);
      mixed:    [E0, f-tensor] = 0, [F0, e-tensor] = 0;
      bracket:  [E0, F0] = (T0 - T0^{-1})/(q - q^{-1});
      serre:    E0^3 e1 - [3] E0^2 e1 E0 + [3] E0 e1 E0^2 - e1 E0^3 = 0,
                with [3] = q^2 + 1 + q^{-2}, at N <= 2 only.
    E0 x and F0 x are computed once and shared by every block.
    """
    ex, fx = e0(x), f0(x)
    yield "diagonal", [t0_apply(e0(t0_apply(x, -1))) - ex.scale(qpow(2)),
                       t0_apply(f0(t0_apply(x, -1))) - fx.scale(qpow(-2)),
                       uq_apply("t1", e0(uq_apply("t1inv", x))) - ex.scale(qpow(-2)),
                       t0_apply(uq_apply("t1", x)) - x]
    yield "mixed", [e0(uq_apply("f1", x)) - uq_apply("f1", ex),
                    f0(uq_apply("e1", x)) - uq_apply("e1", fx)]
    yield "bracket", [e0(fx) - f0(ex)
                      - (t0_apply(x) - t0_apply(x, -1)).scale(_QDIFF_INV)]
    if x.arity <= 2:
        def e1(y):
            return uq_apply("e1", y)

        eex = e0(ex)
        yield "serre", [e0(e0(e0(e1(x)))) - e0(e0(e1(ex))).scale(_THREE)
                        + e0(e1(eex)).scale(_THREE) - e1(e0(eex))]


def _tally(basis: list, e0: Callable, f0: Callable, holds: Callable) -> tuple:
    """Residuals compared, failed residuals and seconds per block of
    `level0_relations` over the basis; holds(block, residual) judges one
    residual."""
    checked, bad, secs = Counter(), Counter(), Counter()
    for x in basis:
        start = time.perf_counter()
        for block, residuals in level0_relations(x, e0, f0):
            checked[block] += len(residuals)
            bad[block] += sum(1 for r in residuals if not holds(block, r))
            now = time.perf_counter()
            secs[block] += now - start
            start = now
    return checked, bad, secs


def chevalley_check(N: int, kb) -> CheckReport:
    """Defining relations of the twisted action at p = q^4, on the quotient.

    Diagonal conjugations hold exactly on the window of kb's depth; the
    bracket relations and the degree-4 relations hold modulo membership in
    the relation window kb (which is what acting on the quotient means).
    e0/f0 preserve degree and weight shifts by -2/+2, so no margin is
    consumed.  The Serre block, written at two slots, is skipped at N > 2.
    """
    rep = CheckReport(f"quotient relations N={N}")
    basis = []
    for d in range(kb.max_degree + 1):
        for m in cone_cell(N, -d):
            for e in sign_strings(N):
                basis.append(TensorPoly.monomial(e, m))

    def holds(block, r):
        return not r or (block != "diagonal" and kb.member(r))

    checked, bad, secs = _tally(basis, e0_apply, f0_apply, holds)
    for block, relation, detail in (
            ("diagonal", "t-conjugations exact; t0 t1 = 1 (level zero)",
             f"{len(basis)} window elements"),
            ("mixed", "[E0, f-tensor] = 0 and [F0, e-tensor] = 0 on the quotient", ""),
            ("bracket", "[E0, F0] = (T0 - T0^{-1})/(q - q^{-1}) on the quotient", ""),
            ("serre", "degree-4 relation on the quotient (two-slot spot check)", "")):
        record(rep, f"chevalley.{block}.N{N}", relation, checked[block], bad[block],
               detail, secs[block])
    return rep


def evaluation_module_suite(N: int) -> CheckReport:
    """Defining relations of the quantum loop algebra on the finite module
    with scalar twists q^{2j-1} at slot j (the classical picture the
    operator twist deforms)."""
    rep = CheckReport(f"evaluation module N={N}")
    one = LaurentPoly.one(0)
    basis = [TensorPoly.basis(e, one) for e in sign_strings(N)]

    def twisted(op, sign):
        def apply(x):
            out = TensorPoly.zero(N, 0)
            for j in range(1, N + 1):
                out += op(x, j).scale(qpow(sign * (2 * j - 1)))
            return out
        return apply

    checked, bad, secs = _tally(basis, twisted(f_op, 1), twisted(e_op, -1),
                                lambda _block, r: not r)
    blocks = ("diagonal", "mixed", "bracket")
    record(rep, f"evalmod.chevalley.N{N}", "level-0 Chevalley relations with scalar twists",
           sum(checked[b] for b in blocks), sum(bad[b] for b in blocks), "",
           sum(secs[b] for b in blocks))
    # no row at N > 2, where it is empty: the benchmark's tables list none
    if N <= 2:
        record(rep, f"evalmod.serre.N{N}", "degree-4 Serre relation", checked["serre"],
               bad["serre"], "spot check", secs["serre"])
    return rep
