"""The constant Hecke operator S, its polynomial twin G, and the R-matrix.

S acts on tensor slots only:

    S (v+ (x) v+) = -q^{-1} v+ (x) v+          (and likewise for --)
    S (v+ (x) v-) = (q - q^{-1}) v+ (x) v-  -  v- (x) v+
    S (v- (x) v+) = - v+ (x) v-

G acts on coefficient polynomials only,

    G^{+-1} f = (q^{-1} z_j - q z_k) d_{jk} f + q^{+-1} f,

with d_{jk} the exact divided difference; both satisfy the same quadratic,
commutation and braid relations.  The R-matrix never appears as a power
series here: R(z_k/z_j) is handled through its cross-multiplied numerator
(S z_k - S^{-1} z_j) against the denominator (q z_k - q^{-1} z_j).
"""

from __future__ import annotations

from .laurent import LaurentPoly, lp_divided_difference, lp_specialize
from .linalg import accumulate
from .report import CheckReport, check
from .scalars import QQ_ONE, qpow, qq_int
from .tensor import (MINUS, PLUS, TensorPoly, e_op, f_op, sign_strings,
                     singlet_vector, triplet_vectors, uq_apply)
from .windows import Window

Q = qpow(1)
QINV = qpow(-1)
QDIFF = qpow(1) - qpow(-1)  # q - q^{-1}
NEG_ONE = qq_int(-1)

# pair channel maps: {(a, b): [((a', b'), coeff), ...]}
S_PAIR = {
    (PLUS, PLUS): [((PLUS, PLUS), -QINV)],
    (MINUS, MINUS): [((MINUS, MINUS), -QINV)],
    (PLUS, MINUS): [((PLUS, MINUS), QDIFF), ((MINUS, PLUS), NEG_ONE)],
    (MINUS, PLUS): [((PLUS, MINUS), NEG_ONE)],
}

# S^{-1} = S - (q - q^{-1})
S_INV_PAIR = {key: list(accumulate(dict(imgs), ((key, -QDIFF),)).items())
              for key, imgs in S_PAIR.items()}


def apply_pair(x: TensorPoly, j: int, k: int, table: dict) -> TensorPoly:
    """Apply a two-slot map given by a channel table at slots (j, k)."""
    if j == k or min(j, k) < 1 or (x.arity is not None and max(j, k) > x.arity):
        raise IndexError("slot pair out of range")

    def images(e):
        out = []
        for (a, b), c in table.get((e[j - 1], e[k - 1]), ()):
            t = list(e)
            t[j - 1], t[k - 1] = a, b
            out.append((tuple(t), c))
        return out

    return x.relabel(images)


def S_apply(x: TensorPoly, j: int, k: int | None = None) -> TensorPoly:
    """S on slots (j, j+1) by default, or an arbitrary ordered pair."""
    return apply_pair(x, j, k if k is not None else j + 1, S_PAIR)


def S_inv_apply(x: TensorPoly, j: int, k: int | None = None) -> TensorPoly:
    return apply_pair(x, j, k if k is not None else j + 1, S_INV_PAIR)


_G_MONO_CACHE: dict = {}


def _g_mono(arity: int, expo: tuple, j: int, k: int, exponent: int) -> LaurentPoly:
    key = (arity, expo, j, k, exponent)
    hit = _G_MONO_CACHE.get(key)
    if hit is None:
        f = LaurentPoly.monomial(arity, expo)
        dd = lp_divided_difference(f, j, k)
        mult = (LaurentPoly.var(arity, j).scale_coeffs(QINV)
                - LaurentPoly.var(arity, k).scale_coeffs(Q))
        hit = mult * dd + f.scale_coeffs(qpow(1 if exponent > 0 else -1))
        _G_MONO_CACHE[key] = hit
    return hit


def G_poly(f: LaurentPoly, j: int, k: int, exponent: int = 1) -> LaurentPoly:
    """G_{j,k}^{+-1} on a bare Laurent polynomial (monomial images cached)."""
    out: dict = {}
    for expo, c in f.terms.items():
        accumulate(out, _g_mono(f.arity, expo, j, k, exponent).terms.items(), c)
    return LaurentPoly(f.arity, out)


def G_apply(x: TensorPoly, j: int, k: int, exponent: int = 1) -> TensorPoly:
    """G acts on coefficients only; tensor slots are untouched."""
    return x.map_coeffs(lambda f: G_poly(f, j, k, exponent))


def R_apply(x: TensorPoly, j: int, k: int) -> tuple[TensorPoly, LaurentPoly]:
    """Cross-multiplied R-matrix at argument z_k/z_j on slots (j, k).

    Returns (numerator, denominator) with numerator = (S z_k - S^{-1} z_j) x
    and denominator = q z_k - q^{-1} z_j, so that formally R x = num/den.
    Callers compare cross-multiplied quantities only.
    """
    if j >= k:
        raise IndexError("R_apply expects j < k")
    zj = LaurentPoly.var(x.nvars, j)
    zk = LaurentPoly.var(x.nvars, k)
    den = zk.scale_coeffs(Q) - zj.scale_coeffs(QINV)
    return R_numerator_op(x, j, k, j, k), den


def R_numerator_op(x: TensorPoly, j: int, k: int, a: int, b: int) -> TensorPoly:
    """(S_{jk} z_b - S^{-1}_{jk} z_a) x: numerator of R_{jk}(z_b/z_a)."""
    za = LaurentPoly.var(x.nvars, a)
    zb = LaurentPoly.var(x.nvars, b)
    return S_apply(x, j, k).mul_poly(zb) - S_inv_apply(x, j, k).mul_poly(za)


def R_matrix_entries():
    """The explicit two-slot R-matrix table, cross-multiplied by (1 - q^2 z).

    Returns {channel_in: [(channel_out, numerator poly in one variable)]}
    with the common denominator 1 - q^2 z.  Used as the independent side of
    the decomposition check against (S z - S^{-1}).
    """
    z = LaurentPoly.var(1, 1)
    one = LaurentPoly.one(1)
    q2 = qpow(2)
    same = z - one.scale_coeffs(q2)                      # z - q^2
    stay_pm = z.scale_coeffs(QQ_ONE - q2)                # (1 - q^2) z
    cross = (z - one).scale_coeffs(Q)                    # q(z - 1)
    stay_mp = one.scale_coeffs(QQ_ONE - q2)              # 1 - q^2
    return {
        (PLUS, PLUS): [((PLUS, PLUS), same)],
        (MINUS, MINUS): [((MINUS, MINUS), same)],
        (PLUS, MINUS): [((PLUS, MINUS), stay_pm), ((MINUS, PLUS), cross)],
        (MINUS, PLUS): [((PLUS, MINUS), cross), ((MINUS, PLUS), stay_mp)],
    }


# -- relation suite ----------------------------------------------------------


def hecke_suite(N: int, window: Window) -> CheckReport:
    """Exact verification of the Hecke-algebra layer at arity N.

    Covers: quadratic, far commutation and braid relations for S (tensor
    side) and for G (polynomial side over the window); the cross-multiplied
    R-matrix decomposition; the R-matrix unitarity point z=1 on the
    invariant vector; Yang-Baxter; eigenvalues of S; S commuting with the
    finite quantum-group action; and the two intertwining exchange rules.
    """
    rep = CheckReport(f"hecke suite N={N}")

    # --- S relations on the full tensor basis (coefficients irrelevant)
    basis = [TensorPoly.basis(e, LaurentPoly.one(N)) for e in sign_strings(N)]

    check(rep, f"hecke.quadratic.S.N{N}", "T - T^{-1} = q - q^{-1}",
          (S_apply(x, j) - S_inv_apply(x, j) - x.scale(QDIFF)
           for x in basis for j in range(1, N)),
          f"{len(basis)} basis vectors")
    check(rep, f"hecke.braid.S.N{N}", "braid and far commutation",
          _braid_and_far(basis, N, S_apply))

    # --- inverse really inverts
    check(rep, f"hecke.inverse.S.N{N}", "S S^{-1} = 1",
          (S_inv_apply(S_apply(x, j), j) - x for x in basis for j in range(1, N)))

    # --- G relations over window monomials
    monos = list(window.exponents())

    def quadratic_G():
        for expo in monos:
            f = LaurentPoly.monomial(N, expo)
            for j in range(1, N):
                yield G_poly(f, j, j + 1, 1) - G_poly(f, j, j + 1, -1) - f.scale_coeffs(QDIFF)
                yield G_poly(G_poly(f, j, j + 1, 1), j, j + 1, -1) != f
    check(rep, f"hecke.quadratic.G.N{N}", "T - T^{-1} = q - q^{-1}", quadratic_G(),
          f"{len(monos)} window monomials")
    check(rep, f"hecke.braid.G.N{N}", "braid and far commutation",
          _braid_and_far((LaurentPoly.monomial(N, expo) for expo in monos), N,
                         lambda f, j: G_poly(f, j, j + 1)))

    # --- G locality over window monomials
    def locality_G():
        for expo in monos:
            f = LaurentPoly.monomial(N, expo)
            for j in range(1, N):
                g = G_poly(f, j, j + 1)
                s0 = expo[j - 1] + expo[j]
                m0 = max(expo[j - 1], expo[j])
                for e2 in g.support():
                    yield e2[j - 1] + e2[j] != s0 or max(e2[j - 1], e2[j]) > m0
    check(rep, f"hecke.locality.G.N{N}",
          "pair sums preserved, pair max never grows", locality_G())

    # --- eigenvalues of S and projector idempotence (two slots suffice)
    def eigen():
        sing = singlet_vector()
        trip = triplet_vectors()
        yield S_apply(sing, 1) - sing.scale(Q)
        for v in trip:
            yield S_apply(v, 1) + v.scale(QINV)
        # projectors built from S: P = (S + q^{-1})/(q + q^{-1}) etc.
        norm = (Q + QINV).inv()
        for v in [sing] + trip:
            p1 = (S_apply(v, 1) + v.scale(QINV)).scale(norm)
            p2 = (S_apply(p1, 1) + p1.scale(QINV)).scale(norm)
            yield p2 - p1
    check(rep, f"hecke.eigen.S.N{N}", "eigenvalues q and -q^{-1}; projectors idempotent",
          eigen())

    # --- [S, Delta^op(x)] = 0 for the finite subalgebra
    probes = basis + [TensorPoly.monomial(e, (-1,) + (0,) * (N - 1))
                      for e in sign_strings(N)]
    check(rep, f"hecke.commute.S-uq.N{N}", "[S, Delta^op(x)] = 0",
          (S_apply(uq_apply(g, x), j) - uq_apply(g, S_apply(x, j))
           for x in probes for g in ("e1", "f1", "t1") for j in range(1, N)),
          "e1, f1, t1 on basis and shifted probes")

    # --- intertwining exchange rules on two slots
    def exchange():
        for e in sign_strings(2):
            x = TensorPoly.basis(e, LaurentPoly.one(0))
            # S (f1 (x) t1^{-1}) = (1 (x) f1) S: the dressed lowering
            # operator at slot 1 drags t1^{-1} over slot 2
            yield S_apply(f_op(x, 1), 1) - f_op(S_apply(x, 1), 2)
            # S (t1 (x) e1) = (e1 (x) 1) S: the dressed raising operator at
            # slot 2 drags t1 over slot 1
            yield S_apply(e_op(x, 2), 1) - e_op(S_apply(x, 1), 1)
    check(rep, f"hecke.exchange.N{N}",
          "S(f1 x t1^{-1}) = (1 x f1)S and S(t1 x e1) = (e1 x 1)S", exchange())

    # --- R-matrix decomposition, cross-multiplied against the table
    def rs():
        table = R_matrix_entries()
        zz = LaurentPoly.var(1, 1)
        one1 = LaurentPoly.one(1)
        den_table = one1 - zz.scale_coeffs(qpow(2))          # 1 - q^2 z
        den_rs = zz.scale_coeffs(Q) - one1.scale_coeffs(QINV)  # q z - q^{-1}
        for key in table:
            x = TensorPoly.basis(key, one1)
            rs_num = (S_apply(x, 1).mul_poly(zz) - S_inv_apply(x, 1))
            tab_num = TensorPoly.zero(2, 1)
            for out_ch, poly in table[key]:
                tab_num += TensorPoly.basis(out_ch, poly)
            yield (rs_num.map_coeffs(lambda f: f * den_table)
                   - tab_num.map_coeffs(lambda f: f * den_rs))
    check(rep, f"hecke.rs.N{N}", "R(z) = (Sz - S^{-1})/(qz - q^{-1})", rs(),
          "cross-multiplied against the explicit table")

    # --- R at z = 1 fixes the invariant vector (cross-multiplied)
    def r_at_1():
        x = singlet_vector(2)
        num, den = R_apply(x, 1, 2)
        yield (num - x.mul_poly(den)).map_coeffs(
            lambda f: lp_specialize(f, 2, 1, QQ_ONE), nvars=1)
    check(rep, f"hecke.r_at_1.N{N}", "R(1) fixes the invariant vector", r_at_1())

    # --- Yang-Baxter, cross-multiplied numerators
    def ybe():
        for e in sign_strings(N):
            x = TensorPoly.basis(e, LaurentPoly.one(N))
            for j in range(1, N - 1):
                a, b, c = j, j + 1, j + 2
                l = R_numerator_op(R_numerator_op(R_numerator_op(
                    x, a, b, b, c), b, c, a, c), a, b, a, b)
                r = R_numerator_op(R_numerator_op(R_numerator_op(
                    x, b, c, a, b), a, b, a, c), b, c, b, c)
                yield l - r
    check(rep, f"hecke.ybe.N{N}", "Yang-Baxter, cross-multiplied", ybe())
    return rep


def _braid_and_far(inputs, N: int, op):
    """True where the two sides differ: the braid and far-commutation
    relations of op(x, j), on the adjacent slots (j, j+1), over the inputs."""
    for x in inputs:
        for j in range(1, N - 1):
            yield op(op(op(x, j), j + 1), j) != op(op(op(x, j + 1), j), j + 1)
        for j in range(1, N):
            for k in range(j + 2, N):
                yield op(op(x, j), k) != op(op(x, k), j)
