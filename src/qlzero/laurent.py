"""Sparse multivariate Laurent polynomials over Q(q).

A LaurentPoly of arity N maps exponent tuples (length N, entries any sign)
to nonzero RatFuncQ coefficients.  Terms with zero coefficient are never
stored, and printing walks terms in lexicographic order, so equal values
print alike.

The variable operators below (swap, divided difference, scale, specialize)
are the atoms from which the Hecke-type operators of the higher modules are
composed.  A linear map given by its monomial images is applied by
`lp_apply`, which sums coefficients in Z[q, q^{-1}] as integers.
"""

from __future__ import annotations

from operator import add
from typing import Iterator

from .linalg import accumulate
from .scalars import QQ_ONE, QQ_ZERO, RatFuncQ, is_q_monomial, qq_int


class LaurentPoly:
    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: dict[tuple, RatFuncQ] | None = None):
        self.arity = arity
        self.terms = terms if terms is not None else {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(arity: int) -> "LaurentPoly":
        return LaurentPoly(arity)

    @staticmethod
    def const(arity: int, c: RatFuncQ) -> "LaurentPoly":
        if not c:
            return LaurentPoly(arity)
        return LaurentPoly(arity, {(0,) * arity: c})

    @staticmethod
    def one(arity: int) -> "LaurentPoly":
        return LaurentPoly.const(arity, QQ_ONE)

    @staticmethod
    def monomial(arity: int, expo: tuple, c: RatFuncQ = QQ_ONE) -> "LaurentPoly":
        if len(expo) != arity:
            raise ValueError("exponent length != arity")
        if not c:
            return LaurentPoly(arity)
        return LaurentPoly(arity, {tuple(expo): c})

    @staticmethod
    def var(arity: int, j: int, power: int = 1) -> "LaurentPoly":
        """The monomial z_j^power (j is 1-based)."""
        e = [0] * arity
        e[j - 1] = power
        return LaurentPoly(arity, {tuple(e): QQ_ONE})

    # -- ring structure ------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._chk(other)
        return LaurentPoly(self.arity, accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, RatFuncQ):
            return self.scale_coeffs(other)
        self._chk(other)
        out: dict[tuple, RatFuncQ] = {}
        for e1, c1 in self.terms.items():
            accumulate(out, ((tuple(map(add, e1, e2)), c2)
                             for e2, c2 in other.terms.items()), c1)
        return LaurentPoly(self.arity, out)

    def scale_coeffs(self, c: RatFuncQ) -> "LaurentPoly":
        if not c:
            return LaurentPoly(self.arity)
        return LaurentPoly(self.arity, {e: s * c for e, s in self.terms.items()})

    def _chk(self, other: "LaurentPoly"):
        if self.arity != other.arity:
            raise ValueError("arity mismatch")

    def coeff(self, expo: tuple) -> RatFuncQ:
        return self.terms.get(tuple(expo), QQ_ZERO)

    def support(self) -> Iterator[tuple]:
        return iter(self.terms)

    def exponent_bounds(self) -> tuple[tuple, tuple] | None:
        """Per-variable (min, max) over the support; None when zero."""
        if not self.terms:
            return None
        lo = [min(e[i] for e in self.terms) for i in range(self.arity)]
        hi = [max(e[i] for e in self.terms) for i in range(self.arity)]
        return tuple(lo), tuple(hi)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            mono = "*".join(f"z{i+1}^{k}" for i, k in enumerate(e) if k) or "1"
            bits.append(f"{self.terms[e]!r}*{mono}")
        return " + ".join(bits)


# -- variable operators ----------------------------------------------------


def lp_swap(f: LaurentPoly, j: int, k: int) -> LaurentPoly:
    """Exchange of the variables z_j and z_k (1-based, j < k)."""
    _check_pair(f, j, k)
    out: dict[tuple, RatFuncQ] = {}
    a, b = j - 1, k - 1
    for e, c in f.terms.items():
        if e[a] == e[b]:
            out[e] = c
            continue
        t = list(e)
        t[a], t[b] = t[b], t[a]
        out[tuple(t)] = c
    return LaurentPoly(f.arity, out)


def lp_divided_difference(f: LaurentPoly, j: int, k: int) -> LaurentPoly:
    """g with (z_j - z_k) * g = swap(f) - f, exact by construction.

    Per term c*z_j^a z_k^b the quotient (z_j^b z_k^a - z_j^a z_k^b)/(z_j-z_k)
    is the closed geometric sum; no long division is performed.
    """
    _check_pair(f, j, k)
    a_i, b_i = j - 1, k - 1
    out: dict[tuple, RatFuncQ] = {}
    for e, c in f.terms.items():
        a, b = e[a_i], e[b_i]
        if a == b:
            continue
        # (x^b y^a - x^a y^b)/(x - y) with x = z_j, y = z_k:
        #   a < b:  sum_{i=0..b-a-1}  x^(a+i) y^(b-1-i)
        #   a > b:  -sum_{i=0..a-b-1} x^(b+i) y^(a-1-i)
        if a < b:
            lo, hi, sgn = a, b, QQ_ONE
        else:
            lo, hi, sgn = b, a, qq_int(-1)
        cc = c * sgn
        t = list(e)
        for i in range(hi - lo):
            t[a_i] = lo + i
            t[b_i] = hi - 1 - i
            accumulate(out, ((tuple(t), cc),))
    return LaurentPoly(f.arity, out)


def lp_scale(f: LaurentPoly, j: int, s: RatFuncQ) -> LaurentPoly:
    """Substitute z_j := s*z_j for a q-monomial scale s."""
    if not (1 <= j <= f.arity):
        raise IndexError("variable index out of range")
    if not is_q_monomial(s):
        raise ValueError("scale must be a pure power of q")
    out: dict[tuple, RatFuncQ] = {}
    powers: dict[int, RatFuncQ] = {}
    for e, c in f.terms.items():
        k = e[j - 1]
        p = powers.get(k)
        if p is None:
            p = _rfq_pow(s, k)
            powers[k] = p
        c = c * p
        if c:
            out[e] = c
    return LaurentPoly(f.arity, out)


def _rfq_pow(s: RatFuncQ, k: int) -> RatFuncQ:
    if k == 0:
        return QQ_ONE
    base = s if k > 0 else s.inv()
    r = QQ_ONE
    for _ in range(abs(k)):
        r = r * base
    return r


def lp_specialize(f: LaurentPoly, j: int, k: int, c: RatFuncQ) -> LaurentPoly:
    """Substitute z_j := c*z_k (then drop variable j, re-indexing the rest).

    c must be a q-monomial so the result stays in the Laurent ring.
    """
    if j == k:
        raise ValueError("specialization indices must differ")
    if not (1 <= j <= f.arity and 1 <= k <= f.arity):
        raise IndexError("variable index out of range")
    if not is_q_monomial(c):
        raise ValueError("specialization constant must be a pure power of q")
    out: dict[tuple, RatFuncQ] = {}
    a_i, b_i = j - 1, k - 1
    for e, s in f.terms.items():
        t = e[a_i]
        ee = list(e)
        ee[b_i] += t
        del ee[a_i]
        accumulate(out, ((tuple(ee), s * _rfq_pow(c, t)),))
    return LaurentPoly(f.arity - 1, out)


def lp_insert_var(f: LaurentPoly, j: int) -> LaurentPoly:
    """Insert a fresh (unused) variable slot before position j (1-based)."""
    out = {}
    for e, c in f.terms.items():
        ee = list(e)
        ee.insert(j - 1, 0)
        out[tuple(ee)] = c
    return LaurentPoly(f.arity + 1, out)


def lp_permute(f: LaurentPoly, perm: tuple) -> LaurentPoly:
    """Relabel variables: new exponent at slot i is old exponent at perm[i]."""
    out = {}
    for e, c in f.terms.items():
        out[tuple(e[p] for p in perm)] = c
    return LaurentPoly(f.arity, out)


def _laurent(c: RatFuncQ) -> tuple:
    """(v, ints) with c = q^v * sum_i ints[i] q^i when c lies in Z[q, q^{-1}]
    (its canonical denominator is then exactly q^{-v}), else (None, None)."""
    den = c.den
    if den[-1] == 1 and den.count(0) == len(den) - 1:
        return 1 - len(den), c.num
    return None, None


def image_table(g: LaurentPoly) -> tuple:
    """The terms of g as an `lp_apply` image table."""
    return tuple((e, *_laurent(c), c) for e, c in g.terms.items())


def lp_apply(f: LaurentPoly, image) -> LaurentPoly:
    """The linear map with monomial images `image(e)`, applied to f.

    An image is a table of entries (exponent, v, ints, c): the term
    c*z^exponent, with c = q^v * sum_i ints[i] q^i if c lies in
    Z[q, q^{-1}], else v = ints = None.  Products of two such Laurent
    coefficients are convolved into integers per output exponent and read
    back as canonical RatFuncQ once; any other product is a RatFuncQ one.
    """
    sums: dict[tuple, dict[int, int]] = {}   # exponent -> {q-power: int}
    rest: dict[tuple, RatFuncQ] = {}
    for expo, c in f.terms.items():
        v0, num = _laurent(c)
        for e, v, cs, r in image(expo):
            if v0 is None or v is None:
                accumulate(rest, ((e, r),), c)
                continue
            acc = sums.setdefault(e, {})
            for i, x in enumerate(num, v0 + v):
                if x:
                    for t, y in enumerate(cs, i):
                        acc[t] = acc.get(t, 0) + x * y
    out: dict[tuple, RatFuncQ] = {}
    for e, acc in sums.items():
        pows = [t for t, x in acc.items() if x]
        if pows:
            k = max(0, -min(pows))           # the denominator is q^k
            num = [0] * (max(pows) + k + 1)
            for t in pows:
                num[t + k] = acc[t]
            out[e] = RatFuncQ(tuple(num), (0,) * k + (1,), _reduced=True)
    return LaurentPoly(f.arity, accumulate(out, rest.items()))


def _check_pair(f: LaurentPoly, j: int, k: int):
    if not (1 <= j <= f.arity and 1 <= k <= f.arity) or j == k:
        raise IndexError("variable pair out of range")
