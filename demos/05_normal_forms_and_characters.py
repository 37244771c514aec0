"""Normal ordering and the character count.

Window elements reduce to canonical sums of admissible spinon symbols
(root-variable labels).  Counting admissible symbols sector by sector
reproduces the graded dimensions of the two level-1 modules - the
strongest global consistency check the engine runs.
"""

from qlzero.characters import graded_character, sector_count
from qlzero.rewrite import RewriteSystem
from qlzero.tensor import MINUS, PLUS, TensorPoly

print("== normal forms on the two-spinon window ==")
rs = RewriteSystem(2, 4)
print(f"{rs.rank()} oriented rules on the chain {rs.sectors}")
examples = [
    TensorPoly.monomial((PLUS, PLUS), (-1, -2)),
    TensorPoly.monomial((PLUS, MINUS), (0, 0)),
    TensorPoly.monomial((MINUS, PLUS), (0, -1)),
]
for x in examples:
    print(f"  {x!r}")
    print(f"    ->  {rs.normal_form(x)!r}")

print("\n== sector-by-sector counts (two-partition form) ==")
for N in (0, 1, 2, 3, 4):
    row = [sector_count(N, e, N % 2) for e in range(7)]
    print(f"  sector {N}, weight {N % 2}: {row}")

print("\n== the graded character against the oracle ==")
res = graded_character(6, 12)
ws = sorted({w for _, w in res["table"]})
print("deg   " + " ".join(f"w={w:+d}".rjust(6) for w in ws))
for d in range(7):
    print(f"d={d}:  " + " ".join(str(res["table"].get((d, w), 0)).rjust(6) for w in ws))
print("oracle agreement:", res["agree"], "  truncated:", res["truncated"])
