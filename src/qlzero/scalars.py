"""Exact scalar arithmetic: integer polynomials in q and the field Q(q).

A q-polynomial is a dense tuple of arbitrary-precision integer coefficients,
lowest degree first, with no trailing zeros.  The empty tuple is zero.

A RatFuncQ is a reduced fraction num/den of two q-polynomials:

  * den is nonzero,
  * gcd(num, den) = 1 (including integer content),
  * den has positive leading coefficient.

With that normalization two RatFuncQ are equal iff their components are
equal, so `== QQ_ZERO` is the global exact zero test.

Almost every coefficient the checks touch is a Laurent polynomial: its
denominator is c*q^k with c > 0.  Such a fraction reduces by its q-valuation
and integer content alone (`_reduce_mono`), so products, sums and
normalizations with monomial denominators never compute a polynomial gcd.
Any other denominator (the cyclotomic factors from pivots and from
1/(q - q^{-1})) goes through `qp_gcd`.  A gcd or exact division with a
monomial side c*q^k never runs the PRS: `qp_gcd` returns q^min(k, val)
times gcd(|c|, content) of the other side, and `qp_div_exact` shifts and
divides the integers.  Only a gcd of two non-monomials runs the primitive
PRS.  Exact division in Z[q] is integer-only.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable

QP = tuple  # q-polynomial: tuple of ints, low degree first, trimmed

QP_ZERO: QP = ()
QP_ONE: QP = (1,)


def qp_trim(cs: Iterable[int]) -> QP:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def qp_from_dict(d: dict[int, int]) -> QP:
    """Build a q-polynomial from {degree: coeff}; degrees must be >= 0."""
    if not d:
        return QP_ZERO
    top = max(d)
    if top < 0 or min(d) < 0:
        raise ValueError("q-polynomial degrees must be non-negative")
    cs = [0] * (top + 1)
    for k, c in d.items():
        cs[k] += c
    return qp_trim(cs)


def qp_monomial(k: int, c: int = 1) -> QP:
    if c == 0:
        return QP_ZERO
    return qp_trim([0] * k + [c])


def qp_deg(a: QP) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(a) - 1


def qp_add(a: QP, b: QP) -> QP:
    if len(a) < len(b):
        a, b = b, a
    cs = list(a)
    for i, c in enumerate(b):
        cs[i] += c
    return qp_trim(cs)


def qp_neg(a: QP) -> QP:
    return tuple(-c for c in a)


def qp_mul(a: QP, b: QP) -> QP:
    if not a or not b:
        return QP_ZERO
    cs = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            cs[i + j] += ai * bj
    return qp_trim(cs)


def qp_mul_int(a: QP, n: int) -> QP:
    if n == 0:
        return QP_ZERO
    return tuple(c * n for c in a)


def qp_content(a: QP) -> int:
    """Integer content with the sign of the leading coefficient."""
    if not a:
        return 0
    g = 0
    for c in a:
        g = math.gcd(g, c)
    return g if a[-1] > 0 else -g


def qp_primitive(a: QP) -> QP:
    c = qp_content(a)
    if c in (0, 1):
        return a
    return tuple(x // c for x in a)


def qp_div_exact(a: QP, b: QP) -> QP:
    """a // b when b divides a exactly in Z[q]; raises ArithmeticError when
    the quotient is not in Z[q].  Integer-only: when it is, every top-down
    step divides the leading remainder coefficient exactly by b's."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return QP_ZERO
    db, lb = len(b) - 1, b[-1]
    if _mono_deg(b) >= 0:
        # b = c*q^k: a shift and an exact integer division
        if any(a[:db]) or any(x % lb for x in a[db:]):
            raise ArithmeticError("inexact polynomial division")
        return tuple(x // lb for x in a[db:])
    if len(a) <= db:
        raise ArithmeticError("inexact polynomial division")
    rem = list(a)
    quo = [0] * (len(a) - db)
    for k in range(len(quo) - 1, -1, -1):
        f, r = divmod(rem[k + db], lb)
        if r:
            raise ArithmeticError("inexact polynomial division")
        if f:
            quo[k] = f
            for i in range(db):
                rem[k + i] -= f * b[i]
    if any(rem[:db]):
        raise ArithmeticError("inexact polynomial division")
    return tuple(quo)


def _pseudo_rem(a: QP, b: QP) -> QP:
    """Pseudo-remainder: a scaled multiple of (a mod b) over the integers."""
    r = list(a)
    db, lb = qp_deg(b), b[-1]
    while len(r) - 1 >= db:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        k = len(r) - 1 - db
        lr = r[-1]
        # r <- lb*r - lr*q^k*b keeps everything in Z[q]
        r = [lb * c for c in r]
        for i, c in enumerate(b):
            r[k + i] -= lr * c
        r.pop()
    return qp_trim(r)


def qp_gcd(a: QP, b: QP) -> QP:
    """gcd with positive leading coefficient: the primitive gcd times the
    gcd of the contents.  Against a monomial c*q^k it is q^min(k, val) times
    gcd(|c|, content) of the other side; otherwise the primitive PRS."""
    for m, other in ((a, b), (b, a)):
        k = _mono_deg(m)
        if k >= 0:
            if not other:
                return (0,) * k + (abs(m[-1]),)
            v, g = 0, abs(m[-1])
            while v < k and not other[v]:
                v += 1
            for x in other[v:]:
                if g == 1:
                    break
                g = math.gcd(g, x)
            return (0,) * v + (g,)
    ca, cb = abs(qp_content(a)), abs(qp_content(b))
    a, b = qp_primitive(a), qp_primitive(b)
    if not a:
        g = b
    elif not b:
        g = a
    else:
        while b:
            if qp_deg(a) < qp_deg(b):
                a, b = b, a
                continue
            r = _pseudo_rem(a, b)
            a, b = b, qp_primitive(r)
        g = a
    if not g:
        c = math.gcd(ca, cb)
        return qp_trim([c])
    g = qp_mul_int(qp_primitive(g), math.gcd(ca, cb))
    return g if g[-1] > 0 else qp_neg(g)


def qp_str(a: QP) -> str:
    """Sparse text form: `c*q^k` terms joined by ' + ', for serialization."""
    if not a:
        return "0"
    parts = []
    for k, c in enumerate(a):
        if c:
            parts.append(f"{c}*q^{k}")
    return " + ".join(parts)


def qp_parse(s: str) -> QP:
    s = s.strip()
    if s == "0":
        return QP_ZERO
    d: dict[int, int] = {}
    for part in s.split("+"):
        c_s, k_s = part.strip().split("*q^")
        d[int(k_s)] = d.get(int(k_s), 0) + int(c_s)
    return qp_from_dict(d)


class RatFuncQ:
    """Element of Q(q) in canonical reduced form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: QP, den: QP = QP_ONE, _reduced: bool = False):
        if not _reduced:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den
        self._hash = None

    def __eq__(self, other):
        if not isinstance(other, RatFuncQ):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        a, b = self, other
        if not a.num:
            return b
        if not b.num:
            return a
        if a.den == b.den:
            return RatFuncQ(qp_add(a.num, b.num), a.den)
        ka, kb = _mono_deg(a.den), _mono_deg(b.den)
        if ka >= 0 and kb >= 0:
            # common denominator lcm(c_a, c_b) * q^max(k_a, k_b)
            ca, cb = a.den[-1], b.den[-1]
            c = ca // math.gcd(ca, cb) * cb
            k = max(ka, kb)
            num = qp_add((0,) * (k - ka) + qp_mul_int(a.num, c // ca),
                         (0,) * (k - kb) + qp_mul_int(b.num, c // cb))
            return RatFuncQ(*_reduce_mono(num, c, k), _reduced=True)
        g = qp_gcd(a.den, b.den)
        if g == QP_ONE:
            num = qp_add(qp_mul(a.num, b.den), qp_mul(b.num, a.den))
            return RatFuncQ(num, qp_mul(a.den, b.den))
        bd = qp_div_exact(b.den, g)
        ad = qp_div_exact(a.den, g)
        num = qp_add(qp_mul(a.num, bd), qp_mul(b.num, ad))
        return RatFuncQ(num, qp_mul(qp_mul(ad, g), bd))

    def __neg__(self):
        return RatFuncQ(qp_neg(self.num), self.den, _reduced=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RatFuncQ):
            return NotImplemented
        if not self.num or not other.num:
            return QQ_ZERO
        ka, kb = _mono_deg(self.den), _mono_deg(other.den)
        if ka >= 0 and kb >= 0:
            return RatFuncQ(*_reduce_mono(qp_mul(self.num, other.num),
                                          self.den[-1] * other.den[-1],
                                          ka + kb), _reduced=True)
        g1 = qp_gcd(self.num, other.den)
        g2 = qp_gcd(other.num, self.den)
        n1 = self.num if g1 == QP_ONE else qp_div_exact(self.num, g1)
        d2 = other.den if g1 == QP_ONE else qp_div_exact(other.den, g1)
        n2 = other.num if g2 == QP_ONE else qp_div_exact(other.num, g2)
        d1 = self.den if g2 == QP_ONE else qp_div_exact(self.den, g2)
        return RatFuncQ(qp_mul(n1, n2), qp_mul(d1, d2), _reduced=True)

    def inv(self) -> "RatFuncQ":
        if not self.num:
            raise ZeroDivisionError("division by zero in Q(q)")
        if self.num[-1] > 0:
            return RatFuncQ(self.den, self.num, _reduced=True)
        return RatFuncQ(qp_neg(self.den), qp_neg(self.num), _reduced=True)

    def __truediv__(self, other):
        return self * other.inv()

    def __repr__(self):
        if self.den == QP_ONE:
            return f"({qp_str(self.num)})"
        return f"({qp_str(self.num)})/({qp_str(self.den)})"

    def to_text(self) -> str:
        if self.den == QP_ONE:
            return qp_str(self.num)
        return f"{qp_str(self.num)} / {qp_str(self.den)}"

    @staticmethod
    def from_text(s: str) -> "RatFuncQ":
        if "/" in s:
            n_s, d_s = s.split("/")
            return RatFuncQ(qp_parse(n_s), qp_parse(d_s))
        return RatFuncQ(qp_parse(s))


def _mono_deg(p: QP) -> int:
    """k when p = c*q^k, else -1."""
    k = len(p) - 1
    return -1 if any(p[:k]) else k


def _reduce_mono(num: QP, c: int, k: int) -> tuple[QP, QP]:
    """Canonical form of num / (c*q^k) with c > 0.  The only common factors
    are a power of q and an integer, so strip the common q-valuation and
    the common content; no polynomial gcd is needed."""
    if not num:
        return QP_ZERO, QP_ONE
    v = 0
    while v < k and not num[v]:
        v += 1
    if v:
        num, k = num[v:], k - v
    g = c
    for x in num:
        if g == 1:
            break
        g = math.gcd(g, x)
    if g != 1:
        num, c = tuple(x // g for x in num), c // g
    return num, (0,) * k + (c,)


def _reduce(num: QP, den: QP) -> tuple[QP, QP]:
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return QP_ZERO, QP_ONE
    k = _mono_deg(den)
    if k >= 0:
        if den[-1] < 0:
            return _reduce_mono(qp_neg(num), -den[-1], k)
        return _reduce_mono(num, den[-1], k)
    g = qp_gcd(num, den)
    if g != QP_ONE:
        num = qp_div_exact(num, g)
        den = qp_div_exact(den, g)
    cn, cd = qp_content(num), qp_content(den)
    cg = math.gcd(abs(cn), abs(cd))
    if cd < 0:
        cg = -cg
    if cg not in (0, 1):
        num = tuple(c // cg for c in num)
        den = tuple(c // cg for c in den)
    return num, den


QQ_ZERO = RatFuncQ(QP_ZERO, QP_ONE, _reduced=True)
QQ_ONE = RatFuncQ(QP_ONE, QP_ONE, _reduced=True)


def qq_int(n: int) -> RatFuncQ:
    return RatFuncQ(qp_trim([n]), QP_ONE, _reduced=True)


@lru_cache(maxsize=None)
def qpow(k: int) -> RatFuncQ:
    """q^k for any integer k (negative powers go to the denominator)."""
    if k >= 0:
        return RatFuncQ(qp_monomial(k), QP_ONE, _reduced=True)
    return RatFuncQ(QP_ONE, qp_monomial(-k), _reduced=True)


def is_q_monomial(s: RatFuncQ) -> bool:
    """True for c*q^k with k of either sign."""
    def mono(p: QP) -> bool:
        return sum(1 for c in p if c) == 1

    return bool(s.num) and mono(s.num) and mono(s.den)
