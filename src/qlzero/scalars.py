"""Exact scalar arithmetic: integer polynomials in q and the field Q(q).

A q-polynomial is a dense tuple of arbitrary-precision integer coefficients,
lowest degree first, with no trailing zeros.  The empty tuple is zero.

A RatFuncQ is a reduced fraction num/den of two q-polynomials:

  * den is nonzero,
  * gcd(num, den) = 1 (including integer content),
  * den has positive leading coefficient.

With that normalization two RatFuncQ are equal iff their components are
equal, so `== QQ_ZERO` is the global exact zero test.
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


def qp_sub(a: QP, b: QP) -> QP:
    return qp_add(a, qp_neg(b))


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
    """a // b when b divides a exactly (raises otherwise)."""
    if not a:
        return QP_ZERO
    from fractions import Fraction

    rem = [Fraction(c) for c in a]
    db, lb = qp_deg(b), b[-1]
    if db < 0:
        raise ZeroDivisionError("division by zero polynomial")
    quo = [Fraction(0)] * (len(a) - len(b) + 1)
    while True:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < db:
            break
        k = len(rem) - 1 - db
        f = rem[-1] / lb
        quo[k] = f
        for i, c in enumerate(b):
            rem[k + i] -= f * c
        rem.pop()
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    out = []
    for c in quo:
        if c.denominator != 1:
            raise ArithmeticError("inexact polynomial division")
        out.append(int(c))
    return qp_trim(out)


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
    """Primitive gcd (positive leading coefficient) via the primitive PRS."""
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
        if a.den == b.den:
            return RatFuncQ(qp_add(a.num, b.num), a.den)
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


def _reduce(num: QP, den: QP) -> tuple[QP, QP]:
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return QP_ZERO, QP_ONE
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


def rfq_normalize(num: QP, den: QP = QP_ONE) -> RatFuncQ:
    """Canonical reduced fraction of two q-polynomials."""
    return RatFuncQ(num, den)


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


def eta_expand(order: int, inverse: bool = False) -> list[RatFuncQ]:
    """Truncated z-expansion of the fusion-normalizing infinite product

        eta(z) = prod_{n>=0} (1 - q^{4n+6} z) / (1 - q^{4n+4} z)

    or of its reciprocal: entry d is the exact Q(q) coefficient of z^d."""
    if order < 0:
        raise ValueError("order must be >= 0")
    direct = [QQ_ONE]
    # Functional equation eta(z)(1 - q^4 z) = (1 - q^6 z) eta(q^4 z) gives
    # eta_D = q^4 (1 - q^{4D-2})/(1 - q^{4D}) eta_{D-1}.
    for d in range(1, order + 1):
        ratio = RatFuncQ(qp_sub(qp_monomial(4), qp_monomial(4 * d + 2)),
                         qp_sub(QP_ONE, qp_monomial(4 * d)))
        direct.append(direct[-1] * ratio)
    if not inverse:
        return direct
    inv = [QQ_ONE]
    for d in range(1, order + 1):
        acc = QQ_ZERO
        for k in range(1, d + 1):
            acc = acc + direct[k] * inv[d - k]
        inv.append(-acc)
    return inv
