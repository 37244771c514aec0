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
"""

from __future__ import annotations

from .affine import Y_poly
from .hecke import G_poly, S_apply
from .laurent import LaurentPoly
from .locality import record_cone
from .report import CheckReport, CheckResult, check, timer
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
                       total: int, active: int) -> dict:
    """Transposed Y on one cone cell: {source mode: [(target mode, coeff)]}.

    coeff = [z^{-source}] Y_j^{e} z^{-target}; source modes with a positive
    component are dropped (they die under the highest-weight cut).
    """
    key = (nvars, j, p, exponent, total, active)
    table = _Y_IMAGE_CACHE.get(key)
    if table is None:
        table = {}
        for m in cone_cell(nvars, total):
            mono = LaurentPoly.monomial(nvars, tuple(-x for x in m))
            img = Y_poly(mono, j, p, exponent, active)
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
    N = x.arity
    nv = x.nvars
    out_terms = {}
    for e, poly in x.terms.items():
        acc: dict[tuple, RatFuncQ] = {}
        for expo, w in poly.terms.items():
            if max(expo) > 0:
                raise ValueError("transposed action needs non-positive modes")
            for m, c in _y_transpose_table(nv, j, p, exponent, sum(expo), N).get(expo, ()):
                prev = acc.get(m)
                acc[m] = c * w if prev is None else prev + c * w
        acc = {k: v for k, v in acc.items() if v}
        if acc:
            out_terms[e] = LaurentPoly(nv, acc)
    return TensorPoly(N, out_terms, nvars=nv)


def e0_apply(x: TensorPoly, p: RatFuncQ = P_DEFAULT) -> TensorPoly:
    """The twisted affine lowering generator on a mode window."""
    out = twisted_sum(x, "e0", x.arity, lambda y, j, ex: hat_y_apply(y, j, p, ex))
    record_cone("e0", out)
    return out


def f0_apply(x: TensorPoly, p: RatFuncQ = P_DEFAULT) -> TensorPoly:
    """The twisted affine raising generator on a mode window."""
    out = twisted_sum(x, "f0", x.arity, lambda y, j, ex: hat_y_apply(y, j, p, ex))
    record_cone("f0", out)
    return out


# -- checks ------------------------------------------------------------------


def rhosg_check(N: int, p: RatFuncQ = P_DEFAULT, window: Window | None = None) -> CheckReport:
    """Exact exchange identity between the twisted generators and S - G.

    Both sides of the identity (and its raising-generator mirror) are
    expanded on every sign string and window monomial; the difference must
    vanish identically.  Far slots are checked to commute outright.
    """
    rep = CheckReport(f"exchange identity N={N}, p={p!r}")
    window = window or Window(N, -3)
    monos = list(window.exponents())
    strs = sign_strings(N)

    for j in range(1, N):
        pair = (j, j + 1)
        for gen, relation, detail in (
                ("e0", "E0 through (S - G) swaps the Y-partners",
                 f"{len(monos)} monomials x {len(strs)} strings"),
                ("f0", "F0 mirror of the exchange identity", "")):
            op, ex = TWIST[gen]
            with timer() as t:
                # lhs - rhs, with op^{(k)} the generator's slot operator:
                #   sum_k op^{(k)} S x . A_k - op^{(k)} x . B_k
                #   - S op^{(j+1)} x . A_j - S op^{(j)} x . A_{j+1}
                #   + op^{(j+1)} x . C_j + op^{(j)} x . C_{j+1},
                # A_k = Y_k^e z^m, B_k = G A_k, C_k = Y_k^e G z^m.  The slot
                # tensors depend on the sign string only.
                slots = []
                for e in strs:
                    x = TensorPoly.basis(e, LaurentPoly.one(N))
                    sx = S_apply(x, j)
                    ox = {k: op(x, k) for k in pair}
                    slots.append((
                        {j: op(sx, j) - S_apply(ox[j + 1], j),
                         j + 1: op(sx, j + 1) - S_apply(ox[j], j)},
                        {k: -ox[k] for k in pair},
                        {j: ox[j + 1], j + 1: ox[j]}))
                bad = 0
                for m in monos:
                    mono = LaurentPoly.monomial(N, m)
                    gm = G_poly(mono, j, j + 1, 1)
                    A = {k: Y_poly(mono, k, p, ex) for k in pair}
                    B = {k: G_poly(A[k], j, j + 1, 1) for k in pair}
                    C = {k: Y_poly(gm, k, p, ex) for k in pair}
                    for tA, tB, tC in slots:
                        diff = TensorPoly.zero(N, N)
                        for k in pair:
                            diff += _pair(tA[k], A[k])
                            diff += _pair(tB[k], B[k])
                            diff += _pair(tC[k], C[k])
                        if diff:
                            bad += 1
            check(rep, f"rhosg.{gen}.j{j}.N{N}", relation, bad == 0, detail, bad,
                  t.seconds)

    # far slots commute with both S and G sides
    with timer() as t:
        bad = 0
        for j in range(1, N):
            for k in range(1, N + 1):
                if k in (j, j + 1):
                    continue
                for m in monos[:: max(1, len(monos) // 8)]:
                    mono = LaurentPoly.monomial(N, m)
                    if (Y_poly(G_poly(mono, j, j + 1), k, p, -1)
                            - G_poly(Y_poly(mono, k, p, -1), j, j + 1)):
                        bad += 1
                for e in strs:
                    x = TensorPoly.basis(e, LaurentPoly.one(N))
                    if S_apply(f_op(x, k), j) - f_op(S_apply(x, j), k):
                        bad += 1
    check(rep, f"rhosg.far.N{N}", "far slots commute through the identity",
          bad == 0, "", bad, t.seconds)
    return rep


def _pair(x: TensorPoly, f: LaurentPoly) -> TensorPoly:
    """Replace every coefficient c (a scalar multiple of 1) by c*f."""
    out = {}
    for e, p in x.terms.items():
        c = p.coeff((0,) * p.arity)
        r = f.scale_coeffs(c)
        if r:
            out[e] = r
    return TensorPoly(x.arity, out, nvars=f.arity)


def chevalley_check(N: int, window: Window, kernel, p: RatFuncQ = P_DEFAULT,
                    sample: int | None = None) -> CheckReport:
    """Defining relations of the twisted action, on the quotient.

    Diagonal conjugations hold exactly on the window; the bracket relations
    and the degree-4 relations hold modulo the kernel membership oracle
    (which is what acting on the quotient means).  e0/f0 preserve degree
    and weight shifts by -2/+2, so no margin is consumed.
    """
    if kernel.max_degree < window.depth:
        raise ValueError("window underflow: kernel shallower than the window")
    rep = CheckReport(f"quotient relations N={N}")
    qdiff_inv = (qpow(1) - qpow(-1)).inv()
    basis = []
    for d in range(window.depth + 1):
        for m in cone_cell(N, -d):
            for e in sign_strings(N):
                basis.append(TensorPoly.monomial(e, m))
    if sample is not None and len(basis) > sample:
        basis = basis[:: max(1, len(basis) // sample)]

    # E0 x, F0 x and, for the Serre relation, E0 E0 x are computed once per
    # window element and reused by every block
    with timer() as t:
        bad = 0
        images = []
        for x in basis:
            ex, fx = e0_apply(x, p), f0_apply(x, p)
            images.append((x, ex, fx))
            if t0_apply(e0_apply(t0_apply(x, -1), p)) - ex.scale(qpow(2)):
                bad += 1
            if t0_apply(f0_apply(t0_apply(x, -1), p)) - fx.scale(qpow(-2)):
                bad += 1
            if uq_apply("t1", e0_apply(uq_apply("t1inv", x), p)) - ex.scale(qpow(-2)):
                bad += 1
            if t0_apply(uq_apply("t1", x)) - x:
                bad += 1
    check(rep, f"chevalley.diagonal.N{N}",
          "t-conjugations exact; t0 t1 = 1 (level zero)", bad == 0,
          f"{len(basis)} window elements", bad, t.seconds)

    with timer() as t:
        bad = 0
        for x, ex, fx in images:
            r1 = e0_apply(uq_apply("f1", x), p) - uq_apply("f1", ex)
            if r1 and not kernel.member(r1)[0]:
                bad += 1
            r2 = f0_apply(uq_apply("e1", x), p) - uq_apply("e1", fx)
            if r2 and not kernel.member(r2)[0]:
                bad += 1
    check(rep, f"chevalley.mixed.N{N}",
          "[E0, f-tensor] = 0 and [F0, e-tensor] = 0 on the quotient",
          bad == 0, "", bad, t.seconds)

    with timer() as t:
        bad = 0
        for x, ex, fx in images:
            com = e0_apply(fx, p) - f0_apply(ex, p)
            want = (t0_apply(x) - t0_apply(x, -1)).scale(qdiff_inv)
            r = com - want
            if r and not kernel.member(r)[0]:
                bad += 1
    check(rep, f"chevalley.bracket.N{N}",
          "[E0, F0] = (T0 - T0^{-1})/(q - q^{-1}) on the quotient",
          bad == 0, "", bad, t.seconds)

    if N <= 2:
        with timer() as t:
            bad = 0
            three = qpow(2) + QQ_ONE + qpow(-2)

            def e1t(y):
                return uq_apply("e1", y)

            for x, ex, _fx in images:
                eex = e0_apply(ex, p)
                acc = (e0_apply(e0_apply(e0_apply(e1t(x), p), p), p)
                       - e0_apply(e0_apply(e1t(ex), p), p).scale(three)
                       + e0_apply(e1t(eex), p).scale(three)
                       - e1t(e0_apply(eex, p)))
                if acc and not kernel.member(acc)[0]:
                    bad += 1
        check(rep, f"chevalley.serre.N{N}",
              "degree-4 relation on the quotient (two-slot spot check)",
              bad == 0, "", bad, t.seconds)
    else:
        rep.add(CheckResult(f"chevalley.serre.N{N}",
                            "degree-4 relation on the quotient", "skipped",
                            "checked at two slots only; see report header"))
    return rep


def evaluation_module_suite(N: int, scalars: list[RatFuncQ] | None = None) -> CheckReport:
    """Defining relations of the quantum loop algebra on the finite module
    with scalar twists (the classical picture the operator twist deforms)."""
    rep = CheckReport(f"evaluation module N={N}")
    if scalars is None:
        scalars = [qpow(2 * j + 1) for j in range(N)]
    one = LaurentPoly.one(0)
    basis = [TensorPoly.basis(e, one) for e in sign_strings(N)]

    def ev_e0(x):
        out = TensorPoly.zero(N, 0)
        for j in range(1, N + 1):
            out += f_op(x, j).scale(scalars[j - 1])
        return out

    def ev_f0(x):
        out = TensorPoly.zero(N, 0)
        for j in range(1, N + 1):
            out += e_op(x, j).scale(scalars[j - 1].inv())
        return out

    qdiff_inv = (qpow(1) - qpow(-1)).inv()

    with timer() as t:
        ok = True
        for x in basis:
            ok &= not (t0_apply(uq_apply("t1", x)) - x)                       # level 0
            ok &= not (t0_apply(ev_e0(t0_apply(x, -1))) - ev_e0(x).scale(qpow(2)))
            ok &= not (t0_apply(ev_f0(t0_apply(x, -1))) - ev_f0(x).scale(qpow(-2)))
            ok &= not (uq_apply("t1", ev_e0(uq_apply("t1inv", x))) - ev_e0(x).scale(qpow(-2)))
            com = ev_e0(ev_f0(x)) - ev_f0(ev_e0(x))
            want = (t0_apply(x) - t0_apply(x, -1)).scale(qdiff_inv)
            ok &= not (com - want)
            ok &= not (ev_e0(uq_apply("f1", x)) - uq_apply("f1", ev_e0(x)))   # [e0, f1] = 0
            ok &= not (ev_f0(uq_apply("e1", x)) - uq_apply("e1", ev_f0(x)))
    check(rep, f"evalmod.chevalley.N{N}",
          "level-0 Chevalley relations with scalar twists", ok, "", 0 if ok else 1,
          t.seconds)

    if N <= 2:
        with timer() as t:
            ok = True
            three = qpow(2) + QQ_ONE + qpow(-2)
            for x in basis:
                acc = (ev_e0(ev_e0(ev_e0(uq_apply("e1", x))))
                       - ev_e0(ev_e0(uq_apply("e1", ev_e0(x)))).scale(three)
                       + ev_e0(uq_apply("e1", ev_e0(ev_e0(x)))).scale(three)
                       - uq_apply("e1", ev_e0(ev_e0(ev_e0(x)))))
                ok &= not acc
        check(rep, f"evalmod.serre.N{N}", "degree-4 Serre relation", ok,
              "spot check", 0 if ok else 1, t.seconds)
    return rep
