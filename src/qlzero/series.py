"""The series face of the level-0 generators.

On generating-series windows the twisted generators read

    E0 = q^{N-1} sum_j Y_j^{-1} f^{(j)},      F0 = q^{-(N-1)} sum_j Y_j e^{(j)},

with f^{(j)} (resp. e^{(j)}) the lowering (raising) slot operator dressed
by the diagonal tail it drags along, and the Y's acting on the coefficient
polynomials in the plain polynomial representation.  The same functions
serve sign-string windows and symbol series (`TensorPoly.window`); the
element face in `level0` is their coefficient extraction.

E0 also has an S/G-chain form, equal to the Y-form only modulo the
exchange ideal (`fusion.e0_forms_check` certifies the agreement).
"""

from __future__ import annotations

from typing import Callable

from .affine import Y_apply, Z_inv_apply
from .hecke import G_poly, S_apply
from .locality import record_tensor
from .scalars import RatFuncQ, qpow
from .tensor import TensorPoly, e_op, f_op

P_DEFAULT = qpow(4)

# generator -> (dressed slot operator, exponent e of Y_j^e); the prefactor
# is q^{-e(N-1)}
TWIST = {"e0": (f_op, -1), "f0": (e_op, +1)}


def twisted_sum(x: TensorPoly, gen: str, N: int,
                apply_y: Callable[[TensorPoly, int, int], TensorPoly]) -> TensorPoly:
    """q^{-e(N-1)} sum_{j<=N} Y_j^e op^{(j)} x for (op, e) = TWIST[gen], with
    apply_y(y, j, e) the action of Y_j^e on y (so each face supplies its
    own Y)."""
    op, ex = TWIST[gen]
    out = TensorPoly.zero(x.arity, x.nvars)
    for j in range(1, N + 1):
        out += apply_y(op(x, j, -ex * (N - 1)), j, ex)
    return out


def series_e0(x: TensorPoly, p: RatFuncQ = P_DEFAULT, arity: int | None = None) -> TensorPoly:
    """E0 on a generating-series window: q^{N-1} sum_j Y_j^{-1} f^{(j)} x.

    `arity` is the number of active slots/variables (spectator variables
    stay untouched); it defaults to all slots and is required for symbol
    series.
    """
    return _series(x, p, arity, "e0")


def series_f0(x: TensorPoly, p: RatFuncQ = P_DEFAULT, arity: int | None = None) -> TensorPoly:
    """F0 on a generating-series window: q^{-(N-1)} sum_j Y_j e^{(j)} x."""
    return _series(x, p, arity, "f0")


def _series(x: TensorPoly, p: RatFuncQ, arity: int | None, gen: str) -> TensorPoly:
    N = x.arity if arity is None else arity
    out = twisted_sum(x, gen, N, lambda y, j, ex: Y_apply(y, j, p, ex, N))
    record_tensor(f"series_{gen}", x, out)
    return out


def expanded_e0_sym(x: TensorPoly, p: RatFuncQ, arity: int) -> TensorPoly:
    """The S/G-chain form of E0 (no q-power prefactor) on a series window."""
    out = TensorPoly.zero(x.arity, x.nvars)
    for j in range(1, arity + 1):
        y = x.map_coeffs(lambda f: Z_inv_apply(f, p))
        for k in range(1, j):                    # G^{-1}_{1,2} first
            y = y.map_coeffs(lambda f, kk=k: G_poly(f, kk, kk + 1, -1))
        for k in range(j, arity):                # S_{j,j+1} first
            y = S_apply(y, k)
        out += f_op(y, arity)
    return out
