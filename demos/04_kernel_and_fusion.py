"""The relation window, membership certificates, and fusion.

The quotient of the free spinon model by the relation ideal is what the
level-0 action actually lives on.  At desk scale the ideal is a finite
row-reduced basis per (energy, weight) cell; a member gets, on request,
an exact certificate over the named generators, checked by recomputation.  Fusion ties the two-spinon window to the vacuum, and
the compatibility of the twisted generators with fusion singles out the
fourth power of q - a wrong scale visibly fails.
"""

from qlzero.fusion import rhof_check
from qlzero.kernel import (fusion_prefactor, fusion_relation, fusion_weight, kernel_build,
                           tensor_to_vec)
from qlzero.scalars import qpow
from qlzero.tensor import MINUS, PLUS, TensorPoly

print("== building the relation window (two slots, depth 3) ==")
kb = kernel_build(2, 3)
print(f"sectors {kb.sectors}, generators {kb.n_generators}, "
      f"rank {kb.rank()} of ambient {kb.ambient_dimension()}")
print("provenance:", kb.provenance)

print("\n== membership with certificates ==")
x = TensorPoly.monomial((PLUS, PLUS), (0, 0))
print(f"top like-sign symbol is a member: {kb.member(x)}")
print("verified certificate:", kb.certificate(x))
y = TensorPoly.monomial((PLUS, MINUS), (0, 0))
print(f"top mixed-sign symbol alone: member={kb.member(y)} (it carries the vacuum)")
vac = TensorPoly.monomial((), (), qpow(1))
fused = tensor_to_vec(y) | tensor_to_vec(vac)
print(f"mixed-sign symbol + q*vacuum: member={kb.member(fused)}  <- the fusion relation")
print("its certificate:", kb.certificate(fused))

print("\n== the fusion relation ==")
print("channel weights at (2, 1): +", fusion_weight(2, 1, PLUS),
      "  -", fusion_weight(2, 1, MINUS))
print("prefactor of pair (2, 3) among three slots:", fusion_prefactor(3, 2, 2))
for eps in ((PLUS, MINUS), (MINUS, PLUS)):
    print(f"relation of {eps} at depth 0:", fusion_relation(eps, 1, 0))

print("\n== fusion compatibility of the twisted generators ==")
rep = rhof_check(2, kb)
for line in rep.lines():
    print(" ", line)
rep = rhof_check(2, kb, p=qpow(3))
for line in rep.lines():
    print(" ", line)
print("the wrong scale fails membership, exactly as it must")
