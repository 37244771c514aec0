"""The relation window, membership certificates, and fusion.

The quotient of the free spinon model by the relation ideal is what the
level-0 action actually lives on.  At desk scale the ideal is a finite
row-reduced basis per (energy, weight) cell; membership comes with an
exact certificate.  Fusion ties the two-spinon window to the vacuum, and
the compatibility of the twisted generators with fusion singles out the
fourth power of q - a wrong scale visibly fails.
"""

from qlzero.fusion import fuse, rhof_check
from qlzero.kernel import kernel_build, tensor_to_vec
from qlzero.laurent import LaurentPoly
from qlzero.scalars import qpow
from qlzero.tensor import MINUS, PLUS, TensorPoly, singlet_vector
from qlzero.windows import Window

print("== building the relation window (two slots, depth 3) ==")
kb = kernel_build(2, Window(2, -3))
print(f"sectors {kb.sectors}, generators {kb.n_generators}, "
      f"rank {kb.rank()} of ambient {kb.ambient_dimension()}")
print("provenance:", kb.provenance)

print("\n== membership with certificates ==")
x = TensorPoly.monomial((PLUS, PLUS), (0, 0))
ok, res, cert = kb.member(x, want_cert=True)
print(f"top like-sign symbol is a member: {ok}; certificate rows: {len(cert)}")
y = TensorPoly.monomial((PLUS, MINUS), (0, 0))
ok, res = kb.member(y)
print(f"top mixed-sign symbol alone: member={ok} (it carries the vacuum)")
vac = TensorPoly.monomial((), (), qpow(1))
ok, _ = kb.member(tensor_to_vec(y) | tensor_to_vec(vac))
print(f"mixed-sign symbol + q*vacuum: member={ok}  <- the fusion relation")

print("\n== the fusion map ==")
print("fuse(v+ v-):", fuse(TensorPoly.basis((PLUS, MINUS), LaurentPoly.one(2)), 1))
print("fuse(invariant):", fuse(singlet_vector(2), 1))

print("\n== fusion compatibility of the twisted generators ==")
rep = rhof_check(2, Window(2, -3))
for line in rep.lines():
    print(" ", line)
rep = rhof_check(2, Window(2, -3), p=qpow(3), enforce_fusion_scale=False,
                 expect_member=False)
for line in rep.lines():
    print(" ", line)
print("the wrong scale fails membership, exactly as it must")
