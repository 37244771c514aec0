"""Exact scalars and Laurent polynomials: the ground floor.

Every computation in this package happens over the field of rational
functions in q with integer coefficients, kept in canonical reduced form,
so equality with zero is a decidable test rather than a tolerance.  This
script walks through the basic objects.
"""

from qlzero.laurent import (LaurentPoly, lp_divided_difference, lp_scale,
                            lp_specialize, lp_swap)
from qlzero.scalars import RatFuncQ, qp_from_dict, qpow

print("== scalars ==")
a = RatFuncQ(qp_from_dict({2: 1, 0: -1}), qp_from_dict({1: 1, 0: -1}))
print("(q^2-1)/(q-1) reduces to", a)

s = qpow(1) + qpow(-1)
print("q + q^-1 =", s, "   inverse:", s.inv(), "   product:", s * s.inv())

print("\n== Laurent polynomials ==")
f = LaurentPoly.monomial(2, (2, -1)) + LaurentPoly.monomial(2, (0, 1), qpow(3))
print("f =", f)
print("swapped:", lp_swap(f, 1, 2))
print("divided difference:", lp_divided_difference(f, 1, 2))
g = lp_divided_difference(f, 1, 2)
zdiff = LaurentPoly.var(2, 1) - LaurentPoly.var(2, 2)
print("check (z1-z2)*d(f) == swap(f) - f:", zdiff * g == lp_swap(f, 1, 2) - f)

print("scaled z1 by q^4:", lp_scale(f, 1, qpow(4)))
print("specialized z2 := q^-2 z1:", lp_specialize(f, 2, 1, qpow(-2)))
