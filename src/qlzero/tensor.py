"""The sparse container of the package and the slot operators acting on it.

A TensorPoly maps keys to LaurentPoly coefficients.  A key has one of two
shapes, fixed per container:

  * sign strings (tuples of +1/-1, length = `arity`): V^{tensor N}-valued
    Laurent polynomials.  On mode windows the monomial with exponent vector
    m in the coefficient of a sign string stands for the basis symbol with
    mode vector m (the formal series variable enters as z^{-m}); inside the
    generating-series pipelines the coefficient is an honest polynomial.
  * symbols (eps, m), a sign string and a mode vector (`arity` is None, and
    the sector of a symbol is the length of its string, so one series may
    mix sectors): finite chunks of a generating series whose coefficients
    are tracked as formal basis symbols.  The value attached to a symbol is
    the Laurent polynomial, in honest series variables, multiplying it;
    `extract_all` reads off the coefficient of each series monomial as an
    exact vector over symbols.  `window` starts the value of the symbol at
    m as the monomial with exponent vector -m; initializing over
    non-positive modes implements the highest-weight truncation.

Variable operators act on the coefficients (`map_coeffs`).  Slot operators
act on the sign strings, through `relabel`, the only code that tells the
two key shapes apart; every slot operator is written once, against sign
strings, and acts the same way on both shapes.

The number of z-variables normally equals the arity but may exceed it when
fusion leaves spectator variables behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .laurent import LaurentPoly
from .linalg import accumulate
from .scalars import QQ_ONE, RatFuncQ, qpow, qq_int
from .windows import cone_exponents

SignString = tuple  # tuple of +1 / -1

PLUS, MINUS = 1, -1


def sign_strings(n: int) -> list[SignString]:
    """All sign strings of length n, lexicographic with + before -."""
    if n == 0:
        return [()]
    rest = sign_strings(n - 1)
    return [(s,) + r for s in (PLUS, MINUS) for r in rest]


class TensorPoly:
    __slots__ = ("arity", "nvars", "terms")

    def __init__(self, arity: int | None, terms: dict | None = None,
                 nvars: int | None = None):
        self.arity = arity
        self.nvars = arity if nvars is None else nvars
        self.terms = terms if terms is not None else {}

    @staticmethod
    def zero(arity: int, nvars: int | None = None) -> "TensorPoly":
        return TensorPoly(arity, nvars=nvars)

    @staticmethod
    def basis(eps: SignString, poly: LaurentPoly) -> "TensorPoly":
        if not poly:
            return TensorPoly(len(eps), nvars=poly.arity)
        return TensorPoly(len(eps), {tuple(eps): poly}, nvars=poly.arity)

    @staticmethod
    def monomial(eps: SignString, expo: tuple, c: RatFuncQ = QQ_ONE) -> "TensorPoly":
        return TensorPoly.basis(eps, LaurentPoly.monomial(len(expo), expo, c))

    @staticmethod
    def window(eps: SignString, max_degree: int) -> "TensorPoly":
        """The truncated series of one sign string, keyed by symbols: all
        non-positive modes of total degree <= max_degree."""
        N = len(eps)
        eps = tuple(eps)
        return TensorPoly(None, {(eps, m): LaurentPoly.monomial(N, tuple(-x for x in m))
                                 for m in cone_exponents(N, max_degree)}, nvars=N)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, TensorPoly):
            return NotImplemented
        return (self.arity == other.arity and self.nvars == other.nvars
                and self.terms == other.terms)

    def __iadd__(self, other: "TensorPoly") -> "TensorPoly":
        if self.arity != other.arity or self.nvars != other.nvars:
            raise ValueError("shape mismatch")
        accumulate(self.terms, other.terms.items())
        return self

    def __add__(self, other: "TensorPoly") -> "TensorPoly":
        out = TensorPoly(self.arity, dict(self.terms), nvars=self.nvars)
        out += other
        return out

    def __neg__(self):
        return TensorPoly(self.arity, {e: -p for e, p in self.terms.items()},
                          nvars=self.nvars)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: RatFuncQ) -> "TensorPoly":
        if not c:
            return TensorPoly(self.arity, nvars=self.nvars)
        return self.map_coeffs(lambda p: p.scale_coeffs(c))

    def mul_poly(self, f: LaurentPoly) -> "TensorPoly":
        return self.map_coeffs(lambda p: p * f)

    def map_coeffs(self, fn: Callable[[LaurentPoly], LaurentPoly],
                   nvars: int | None = None) -> "TensorPoly":
        """Apply a z-operator to every coefficient polynomial; `nvars` is
        the variable count of the results when fn changes it."""
        out = {}
        for key, p in self.terms.items():
            r = fn(p)
            if r:
                out[key] = r
        return TensorPoly(self.arity, out, nvars=self.nvars if nvars is None else nvars)

    def relabel(self, images: Callable[[SignString], Iterable], grow: int = 0) -> "TensorPoly":
        """Apply a linear map of sign strings: images(eps) lists pairs
        (eps_out, c), and the coefficient at eps, times c, moves to eps_out.
        The mode of a symbol key rides along; `grow` is the change of arity
        of sign-string keys."""
        symbols = self.arity is None
        out = TensorPoly(None if symbols else self.arity + grow, nvars=self.nvars)
        for key, p in self.terms.items():
            for eps, c in images(key[0] if symbols else key):
                accumulate(out.terms, (((eps, key[1]) if symbols else eps,
                                        p if c == QQ_ONE else p.scale_coeffs(c)),))
        return out

    def extract_all(self) -> dict[tuple, dict]:
        """Coefficients of the series monomials at once: {exponent: {key:
        coeff}}, each a sparse vector over the keys."""
        out: dict[tuple, dict] = {}
        for key, p in self.terms.items():
            for expo, c in p.terms.items():
                out.setdefault(expo, {})[key] = c
        return out

    def coeff(self, eps: SignString) -> LaurentPoly:
        return self.terms.get(tuple(eps), LaurentPoly.zero(self.nvars))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, reverse=True):
            tag = repr(key) if self.arity is None else \
                "".join("+" if s > 0 else "-" for s in key) or "()"
            bits.append(f"[{tag}]({self.terms[key]!r})")
        return " + ".join(bits)


def weight(eps: SignString) -> int:
    return sum(eps)


@dataclass(frozen=True)
class GradedSlot:
    """Homogeneous bidegree of a window component."""

    weight: int
    degree: int  # minus the total mode index


def weight_degree(x: TensorPoly) -> set[GradedSlot]:
    """Occupied (weight, degree) cells of a mode-window element."""
    out = set()
    for e, p in x.terms.items():
        w = weight(e)
        for expo in p.support():
            out.add(GradedSlot(w, -sum(expo)))
    return out


# -- slot operators ----------------------------------------------------------


def dressed_slot(x: TensorPoly, j: int, to: int, right: bool, power: int = 0) -> TensorPoly:
    """The dressed lowering (to=MINUS) or raising (to=PLUS) operator at slot j.

    Slot j turns from -to into to, and the term is scaled by
    q^{to * weight(tail) + power}: the t^{to} factors dragged along the
    tail, which is the slots right of j (right=True) or left of j.
    """
    i = j - 1

    def images(e):
        if e[i] != -to:
            return ()
        tail = e[j:] if right else e[:i]
        return ((e[:i] + (to,) + e[j:], qpow(to * sum(tail) + power)),)

    return x.relabel(images)


def f_op(x: TensorPoly, j: int, power: int = 0) -> TensorPoly:
    """Lower slot j and scale by the inverse-t tail on slots j+1..N (and by
    q^power)."""
    return dressed_slot(x, j, MINUS, True, power)


def e_op(x: TensorPoly, j: int, power: int = 0) -> TensorPoly:
    """Raise slot j and scale by the t tail on slots 1..j-1 (and by
    q^power)."""
    return dressed_slot(x, j, PLUS, False, power)


def t_diag(x: TensorPoly, sign: int = 1) -> TensorPoly:
    """Diagonal q^{sign * weight}: t1 on every slot, or t1^{-1} for sign -1."""
    return x.relabel(lambda e: ((e, qpow(sign * sum(e))),))


# -- the quantum-group generators (opposite-coproduct tensor action) --------

# slot-moving generators: (new sign, tail on the right)
_SLOT_MOVES = {"e1": (PLUS, True), "f1": (MINUS, False)}


def uq_apply(gen: str, x: TensorPoly) -> TensorPoly:
    """Iterated opposite-coproduct action of U_q(sl_2) on a mode window.

    e1 turns - into +, f1 turns + into -, t1 scales by q^{eps}.  Tails of
    t-factors implement the opposite coproduct: e1 carries t's to the right
    of the moving slot, f1 carries inverse t's to the left.  The level-0
    generators E0/F0 are `level0.e0_apply`/`f0_apply`.
    """
    if gen in ("t1", "t1inv"):
        return t_diag(x, 1 if gen == "t1" else -1)
    if gen not in _SLOT_MOVES:
        raise ValueError(f"unknown generator {gen!r}")
    to, right = _SLOT_MOVES[gen]
    out = TensorPoly.zero(x.arity, x.nvars)
    for j in range(1, x.arity + 1):
        out += dressed_slot(x, j, to, right)
    return out


_SINGLET_SECOND = qq_int(-1) * qpow(-1)
_SINGLET_CHANNEL = {PLUS: QQ_ONE, MINUS: _SINGLET_SECOND}  # v+ v- - q^{-1} v- v+


def singlet_vector(nvars: int = 0) -> TensorPoly:
    """The two-slot invariant vector with unit coefficient polynomial."""
    one = LaurentPoly.one(nvars)
    return (TensorPoly.basis((PLUS, MINUS), one)
            + TensorPoly.basis((MINUS, PLUS), one.scale_coeffs(_SINGLET_SECOND)))


def triplet_vectors() -> list[TensorPoly]:
    """The triplet channel of two slots: v+ v+, v- v-, v+ v- + q v- v+."""
    one = LaurentPoly.one(0)
    return [TensorPoly.basis((PLUS, PLUS), one),
            TensorPoly.basis((MINUS, MINUS), one),
            TensorPoly.basis((PLUS, MINUS), one)
            + TensorPoly.basis((MINUS, PLUS), one.scale_coeffs(qpow(1)))]


def singlet_contract(x: TensorPoly, j: int) -> TensorPoly:
    """Project slots j, j+1 onto the invariant channel.

    A pair (a, -a) goes to the dual invariant vector's weight at a (1 at
    (+,-) and -q^{-1} at (-,+)) times the string without the pair; equal
    signs die.  Variables are untouched.
    """
    if x.arity < 2 or not (1 <= j <= x.arity - 1):
        raise ValueError("need two adjacent slots")

    def images(e):
        a = e[j - 1]
        if a + e[j]:
            return ()
        return ((e[: j - 1] + e[j + 1:], _SINGLET_CHANNEL[a]),)

    return x.relabel(images, grow=-2)


def kappa(N: int) -> tuple:
    """Triangular offset vector; component j is floor((N-j)/2)."""
    return tuple((N - j) // 2 for j in range(1, N + 1))
