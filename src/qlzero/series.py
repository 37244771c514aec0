"""The series face of the level-0 generators.

On generating-series windows in N variables, one per slot, the twisted
generators read

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


def twisted_sum(x: TensorPoly, gen: str,
                apply_y: Callable[[TensorPoly, int, int], TensorPoly]) -> TensorPoly:
    """q^{-e(N-1)} sum_{j<=N} Y_j^e op^{(j)} x for (op, e) = TWIST[gen] and
    N = x.nvars, with apply_y(y, j, e) the action of Y_j^e on y (so each face
    supplies its own Y).  Sign-string keys need one variable per slot."""
    N = x.nvars
    if x.arity not in (None, N):
        raise ValueError(f"{x.arity} slots over {N} variables: need one per slot")
    op, ex = TWIST[gen]
    out = TensorPoly.zero(x.arity, N)
    for j in range(1, N + 1):
        out += apply_y(op(x, j, -ex * (N - 1)), j, ex)
    return out


def series_e0(x: TensorPoly, p: RatFuncQ = P_DEFAULT) -> TensorPoly:
    """E0 on a generating-series window: q^{N-1} sum_j Y_j^{-1} f^{(j)} x,
    with N the number of series variables."""
    return _series(x, p, "e0")


def series_f0(x: TensorPoly, p: RatFuncQ = P_DEFAULT) -> TensorPoly:
    """F0 on a generating-series window: q^{-(N-1)} sum_j Y_j e^{(j)} x."""
    return _series(x, p, "f0")


def _series(x: TensorPoly, p: RatFuncQ, gen: str) -> TensorPoly:
    out = twisted_sum(x, gen, lambda y, j, ex: Y_apply(y, j, p, ex))
    record_tensor(f"series_{gen}", x, out)
    return out


def expanded_e0_sym(x: TensorPoly, p: RatFuncQ) -> TensorPoly:
    """The S/G-chain form of E0 (no q-power prefactor) on a series window."""
    N = x.nvars
    out = TensorPoly.zero(x.arity, N)
    for j in range(1, N + 1):
        y = x.map_coeffs(lambda f: Z_inv_apply(f, p))
        for k in range(1, j):                    # G^{-1}_{1,2} first
            y = y.map_coeffs(lambda f, kk=k: G_poly(f, kk, kk + 1, -1))
        for k in range(j, N):                    # S_{j,j+1} first
            y = S_apply(y, k)
        out += f_op(y, N)
    return out
