"""The cyclic operator Z, the commuting family Y_j, and their relation suite.

All operators here act on Laurent polynomials (the polynomial representation
of the affine Hecke algebra); composition is rightmost-first throughout:

    Z   = K_{1,2} K_{1,3} ... K_{1,N} p^{theta_1}
    Y_j = G_{j,j+1}^{-1} ... G_{N-1,N}^{-1}  Z  G_{1,2} ... G_{j-1,j}

with p^{theta_j} the scale substitution z_j := p z_j.  The inverse cycle is
the substitution f(z_1,...,z_N) -> f(z_2,...,z_N, p^{-1} z_1), which is how
the level-0 generators move modes around.  The relation checks apply Y
through `y_by_monomial`, which holds each monomial image for one check as
an integer Laurent table and sums the images with `lp_apply`, as G does.

The module also carries a tiny calculus of operators of the form
sum_w (rational function) * (variable permutation), enough to verify the
exchange identities for the B/C building blocks exactly (equality is tested
per permutation by cross-multiplied numerators, so no rational-function
gcds are ever needed).
"""

from __future__ import annotations

import itertools

from .hecke import G_poly, S_apply
from .laurent import (LaurentPoly, image_table, lp_apply, lp_permute, lp_scale,
                      lp_swap)
from .report import CheckReport, check
from .scalars import QQ_ONE, RatFuncQ, qpow
from .tensor import (MINUS, PLUS, TensorPoly, singlet_contract, singlet_vector,
                     triplet_vectors)
from .windows import Window


def Z_apply(f: LaurentPoly, p: RatFuncQ) -> LaurentPoly:
    """Z = K_{1,2}...K_{1,N} p^{theta_1}: f goes to f(p z_N, z_1, ..., z_{N-1})."""
    out = lp_scale(f, 1, p)
    for k in range(f.arity, 1, -1):
        out = lp_swap(out, 1, k)
    return out


def Z_inv_apply(f: LaurentPoly, p: RatFuncQ) -> LaurentPoly:
    """f goes to f(z_2, ..., z_N, p^{-1} z_1): the cyclic mode rotation."""
    out = f
    for k in range(2, f.arity + 1):
        out = lp_swap(out, 1, k)
    return lp_scale(out, 1, p.inv())


def Y_poly(f: LaurentPoly, j: int, p: RatFuncQ, exponent: int = 1) -> LaurentPoly:
    """Y_j^{+-1} on a Laurent polynomial in N = f.arity variables."""
    N = f.arity
    if not (1 <= j <= N):
        raise IndexError("Y index out of range")
    if exponent > 0:
        out = f
        for k in range(j - 1, 0, -1):        # G_{j-1,j} first, G_{1,2} last
            out = G_poly(out, k, k + 1, 1)
        out = Z_apply(out, p)
        for k in range(N - 1, j - 1, -1):    # G_{N-1,N}^{-1} first
            out = G_poly(out, k, k + 1, -1)
        return out
    out = f
    for k in range(j, N):                    # G_{j,j+1} first, G_{N-1,N} last
        out = G_poly(out, k, k + 1, 1)
    out = Z_inv_apply(out, p)
    for k in range(1, j):                    # G_{1,2}^{-1} first
        out = G_poly(out, k, k + 1, -1)
    return out


def y_by_monomial(p: RatFuncQ):
    """The map Y(f, j, e=1) = Y_poly(f, j, p, e), applied through the
    monomial images by `lp_apply`; each image table is computed once and
    kept in a dict that the map owns, so it lives as long as the caller
    holds the map (one check)."""
    images: dict = {}

    def Y(f: LaurentPoly, j: int, e: int = 1) -> LaurentPoly:
        def image(expo):
            key = (expo, j, e)
            tab = images.get(key)
            if tab is None:
                mono = LaurentPoly.monomial(f.arity, expo)
                tab = images[key] = image_table(Y_poly(mono, j, p, e))
            return tab
        return lp_apply(f, image)
    return Y


def Y_apply(x: TensorPoly, j: int, p: RatFuncQ, exponent: int = 1) -> TensorPoly:
    """Y on the coefficients of a tensor-valued polynomial."""
    return x.map_coeffs(lambda f: Y_poly(f, j, p, exponent))


# -- relation suites ---------------------------------------------------------


def affine_hecke_suite(N: int, p: RatFuncQ, window: Window) -> CheckReport:
    """Exact affine Hecke relations on all window monomials."""
    rep = CheckReport(f"affine hecke suite N={N}")
    monos = [LaurentPoly.monomial(N, e) for e in window.exponents()]
    Y = y_by_monomial(p)

    def commute():
        for f in monos:
            ys = {j: Y(f, j) for j in range(1, N + 1)}
            for j in range(1, N + 1):
                for k in range(j + 1, N + 1):
                    yield Y(ys[k], j) != Y(ys[j], k)
    check(rep, f"affine.commute.N{N}", "Y_j Y_k = Y_k Y_j", commute(),
          f"{len(monos)} monomials, p={p!r}")
    check(rep, f"affine.crossing.N{N}", "G Y_j G = Y_{j+1}",
          (G_poly(Y(G_poly(f, j, j + 1), j), j, j + 1) != Y(f, j + 1)
           for f in monos for j in range(1, N)))
    check(rep, f"affine.far.N{N}", "[G_{j,j+1}, Y_k] = 0 for k off the pair",
          (G_poly(Y(f, k), j, j + 1) != Y(G_poly(f, j, j + 1), k)
           for f in monos for j in range(1, N) for k in range(1, N + 1)
           if k not in (j, j + 1)))

    def inverse():
        for f in monos[: max(1, len(monos) // 3)]:
            for j in range(1, N + 1):
                yield Y(Y(f, j), j, -1) != f
                yield Y(Y(f, j, -1), j) != f
    check(rep, f"affine.inverse.N{N}", "Y_j Y_j^{-1} = 1", inverse())

    # degree and cone preservation (the computational content of the
    # highest-weight compatibility)
    def cone():
        for f in monos:
            e0 = next(iter(f.support()))
            for j in range(1, N + 1):
                for e in Y(f, j).support():
                    yield sum(e) != sum(e0) or max(e) > 0
    check(rep, f"affine.cone.N{N}", "Y preserves degree and the non-positive cone",
          cone())
    return rep


# -- permutation-indexed rational operators ----------------------------------


class RationalOp:
    """Operator sum_w (num_w/den_w) * P_w with P_w a variable relabeling.

    P_w f(z_1,...,z_N) = f(z_{w(1)}, ..., z_{w(N)}); w is a tuple of 0-based
    indices.  Fractions stay unreduced; equality cross-multiplies.
    """

    def __init__(self, nvars: int, parts: dict | None = None):
        self.nvars = nvars
        self.parts = parts or {}

    @staticmethod
    def multiplier(num: LaurentPoly, den: LaurentPoly) -> "RationalOp":
        w = tuple(range(num.arity))
        return RationalOp(num.arity, {w: (num, den)})

    @staticmethod
    def swap(nvars: int, j: int, k: int) -> "RationalOp":
        w = list(range(nvars))
        w[j - 1], w[k - 1] = w[k - 1], w[j - 1]
        return RationalOp(nvars, {tuple(w): (LaurentPoly.one(nvars), LaurentPoly.one(nvars))})

    def __add__(self, other: "RationalOp") -> "RationalOp":
        parts = dict(self.parts)
        for w, (n2, d2) in other.parts.items():
            if w in parts:
                n1, d1 = parts[w]
                parts[w] = (n1 * d2 + n2 * d1, d1 * d2)
            else:
                parts[w] = (n2, d2)
        return RationalOp(self.nvars, parts)

    def __neg__(self):
        return RationalOp(self.nvars, {w: (-n, d) for w, (n, d) in self.parts.items()})

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other: "RationalOp") -> "RationalOp":
        """Composition: self after other."""
        parts: dict = {}
        for w1, (n1, d1) in self.parts.items():
            for w2, (n2, d2) in other.parts.items():
                # self = r1 P_{w1}, other = r2 P_{w2}:
                # r1 P_{w1} r2 P_{w2} = r1 * (P_{w1} r2) * P_{w1 o w2}
                n2p, d2p = _permute_pair(n2, d2, w1)
                w = tuple(w2[w1[i]] for i in range(self.nvars))
                n, d = n1 * n2p, d1 * d2p
                if w in parts:
                    na, da = parts[w]
                    parts[w] = (na * d + n * da, da * d)
                else:
                    parts[w] = (n, d)
        return RationalOp(self.nvars, parts)

    def is_zero(self) -> bool:
        return all(not n for n, _ in self.parts.values())

    def equals(self, other: "RationalOp") -> bool:
        return (self - other).is_zero()

    def apply_cleared(self, f: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
        """(numerator, denominator) of the operator applied to f, over the
        product of all component denominators."""
        den_all = LaurentPoly.one(self.nvars)
        for _, (n, d) in sorted(self.parts.items()):
            den_all = den_all * d
        num = LaurentPoly.zero(self.nvars)
        for w, (n, d) in sorted(self.parts.items()):
            rest = LaurentPoly.one(self.nvars)
            for w2, (n2, d2) in sorted(self.parts.items()):
                if w2 != w:
                    rest = rest * d2
            num = num + n * rest * lp_permute(f, w)
        return num, den_all


def _permute_pair(n: LaurentPoly, d: LaurentPoly, w: tuple):
    # P_w * r = (P_w r) * P_w with (P_w r) the relabeled rational function;
    # exponent vectors transform by e -> e o w^{-1}, i.e. new[w[i]] = old[i].
    inv = [0] * len(w)
    for i, t in enumerate(w):
        inv[t] = i
    return lp_permute(n, tuple(inv)), lp_permute(d, tuple(inv))


def op_B(nvars: int, j: int, k: int) -> RationalOp:
    num = (LaurentPoly.var(nvars, j).scale_coeffs(qpow(-1))
           - LaurentPoly.var(nvars, k).scale_coeffs(qpow(1)))
    den = LaurentPoly.var(nvars, j) - LaurentPoly.var(nvars, k)
    return RationalOp.multiplier(num, den)


def op_C(nvars: int, j: int, k: int, bar: bool = False) -> RationalOp:
    which = k if bar else j
    num = LaurentPoly.var(nvars, which).scale_coeffs(qpow(1) - qpow(-1))
    den = LaurentPoly.var(nvars, j) - LaurentPoly.var(nvars, k)
    return RationalOp.multiplier(num, den)


def op_G(nvars: int, j: int, k: int, exponent: int = 1) -> RationalOp:
    # G = B K + C and G^{-1} = B K + Cbar; the diagonal q-term is inside C.
    mix = op_B(nvars, j, k) @ RationalOp.swap(nvars, j, k)
    return mix + op_C(nvars, j, k, bar=exponent < 0)


def lemma_suite() -> CheckReport:
    """Exact operator identities feeding the fusion-compatibility proof."""
    rep = CheckReport("exchange lemma suite")

    # singlet transport: S_{2,3} S_{1,2} (v_eps (x) invariant) moves the
    # invariant pair to the front and pays q^{-1}
    check(rep, "lemma.transport.singlet", "S2 S1 (v x inv) = q^{-1} (inv x v)",
          (S_apply(S_apply(_tensor_left(s, singlet_vector(0)), 1), 2)
           - _tensor_right(singlet_vector(0), s).scale(qpow(-1))
           for s in (PLUS, MINUS)))

    # triplet transport: image of V (x) triplet lies in triplet (x) V:
    # the invariant channel of slots (1,2) must vanish
    check(rep, "lemma.transport.triplet", "S2 S1 (V x triplet) in triplet x V",
          (singlet_contract(S_apply(S_apply(_tensor_left(s, v3), 1), 2), 1)
           for s in (PLUS, MINUS) for v3 in triplet_vectors()))

    # Cbar_{2,3} G^{-1}_{1,2} = (G^{-1}_{1,2} + C_{2,3}) Cbar_{1,3}
    def cbar():
        lhs = op_C(3, 2, 3, bar=True) @ op_G(3, 1, 2, -1)
        rhs = (op_G(3, 1, 2, -1) + op_C(3, 2, 3)) @ op_C(3, 1, 3, bar=True)
        yield not lhs.equals(rhs)
    check(rep, "lemma.exchange.cbar", "Cbar23 Ginv12 = (Ginv12 + C23) Cbar13",
          cbar(), "operator identity, cross-multiplied")

    # (G^{-1}_{j,j+1} + C_{j+1,m}) C_{j,m} = C_{j+1,m} G_{j,j+1}
    check(rep, "lemma.exchange.step4", "(Ginv + C_{j+1,m}) C_{j,m} = C_{j+1,m} G",
          (not ((op_G(4, j, j + 1, -1) + op_C(4, j + 1, m)) @ op_C(4, j, m))
           .equals(op_C(4, j + 1, m) @ op_G(4, j, j + 1))
           for (j, m) in [(1, 3), (2, 4), (1, 4)]),
          "indices over 4 variables")

    # G = B K + C and G^{-1} = B K + Cbar against G's closed-form images
    def decomposition():
        for e in itertools.product(range(-2, 1), repeat=3):
            f = LaurentPoly.monomial(3, e)
            for (j, k) in [(1, 2), (2, 3), (1, 3)]:
                for ex in (1, -1):
                    num, den = op_G(3, j, k, ex).apply_cleared(f)
                    yield num - G_poly(f, j, k, ex) * den
    check(rep, "lemma.bcc.decomposition", "G^{+-1} = B K + C (resp. Cbar)",
          decomposition(), "cross-multiplied on 27 monomials")
    return rep


def _tensor_left(s: int, x: TensorPoly) -> TensorPoly:
    return x.relabel(lambda e: (((s,) + e, QQ_ONE),), grow=1)


def _tensor_right(x: TensorPoly, s: int) -> TensorPoly:
    return x.relabel(lambda e: ((e + (s,), QQ_ONE),), grow=1)
