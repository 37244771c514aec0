"""qlzero: exact symbolic checks for a level-0 quantum-affine action
realized through affine Hecke operators on spinon-type bases.

Everything is computed over the exact field Q(q); a check passes only when
its residual is identically zero (or an exact kernel-membership certificate
exists).  No floating point is used anywhere.
"""

from .scalars import RatFuncQ, qpow, QQ_ONE, QQ_ZERO, qq_int
from .laurent import LaurentPoly

__all__ = [
    "RatFuncQ",
    "qpow",
    "qq_int",
    "QQ_ONE",
    "QQ_ZERO",
    "LaurentPoly",
]

__version__ = "0.1.0"
