"""The two Hecke realizations and the R-matrix.

The constant operator S acts on tensor slots; its polynomial twin G acts
on coefficients as the Demazure-Lusztig operator built on the exact
divided difference, applied through closed-form monomial images with
integer Laurent coefficients.  Both satisfy the same quadratic and braid
relations, and the R-matrix factors through them as
(S z - S^{-1})/(q z - q^{-1}) - verified here cross-multiplied, never as
a power series.
"""

from qlzero.hecke import G_poly, R_apply, S_apply, hecke_suite
from qlzero.laurent import LaurentPoly
from qlzero.scalars import qpow
from qlzero.tensor import MINUS, PLUS, TensorPoly, singlet_vector
from qlzero.windows import Window

print("== S on two slots ==")
for eps in ((PLUS, PLUS), (PLUS, MINUS), (MINUS, PLUS)):
    x = TensorPoly.basis(eps, LaurentPoly.one(0))
    print(f"  S {x!r} = {S_apply(x, 1)!r}")

v = singlet_vector(0)
print("invariant vector:", v)
print("S v =", S_apply(v, 1), "  (eigenvalue q)")

print("\n== G on polynomials ==")
one = LaurentPoly.one(2)
z2 = LaurentPoly.var(2, 2)
print("G 1 =", G_poly(one, 1, 2))
print("G z2 =", G_poly(z2, 1, 2))
print("G^{-1} z2 =", G_poly(z2, 1, 2, -1))
qdiff = qpow(1) - qpow(-1)
print("quadratic check:", G_poly(z2, 1, 2) - G_poly(z2, 1, 2, -1) == z2.scale_coeffs(qdiff))

print("\n== R-matrix, cross-multiplied ==")
x = TensorPoly.basis((PLUS, MINUS), LaurentPoly.one(2))
num, den = R_apply(x, 1, 2)
print("numerator:", num)
print("denominator:", den)

print("\n== full relation suite at three slots ==")
rep = hecke_suite(3, Window(3, -2))
for line in rep.lines():
    print(" ", line)
print(rep.summary())
