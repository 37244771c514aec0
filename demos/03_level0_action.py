"""The twisted level-0 generators and their exchange identity.

Scalars in the classical evaluation module become operators: the twist
replaces each coefficient by a power of q times an inverse Y operator.
The exchange identity (how the twisted lowering generator moves through
S - G) is an exact operator identity, verified monomial by monomial, and
it pins every ordering convention in the construction.
"""

from qlzero.laurent import LaurentPoly
from qlzero.level0 import (e0_apply, evaluation_module_suite, f0_apply,
                           rhosg_check, t0_apply)
from qlzero.scalars import qpow
from qlzero.series import series_e0
from qlzero.tensor import MINUS, PLUS, TensorPoly
from qlzero.windows import Window

print("== single slot ==")
x = TensorPoly.basis((PLUS,), LaurentPoly.one(1))
print("E0 (v+ . 1) =", e0_apply(x))
print("F0 (v- . 1) =", f0_apply(TensorPoly.basis((MINUS,), LaurentPoly.one(1))))
print("T0 (v+ . 1) =", t0_apply(x))

print("\n== two slots, series face ==")
y = TensorPoly.basis((PLUS, PLUS), LaurentPoly.one(2))
print("E0 (v+ v+ . 1) =", series_e0(y))

print("\n== the classical picture: scalar twists ==")
rep = evaluation_module_suite(2)
for line in rep.lines():
    print(" ", line)

print("\n== the exchange identity, exactly, at a generic scale ==")
rep = rhosg_check(2, qpow(3), Window(2, -3))
for line in rep.lines():
    print(" ", line)
print(rep.summary())
