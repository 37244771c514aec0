"""Locality ledger: declared versus observed mode-shift margins.

The series face of E0 and F0 (`series.series_e0`, `series.series_f0`)
records how far the largest exponent of each image exceeds that of its
input.  Both declare the margin 0; recording an undeclared family raises
KeyError, and a run fails its locality assertion if an observation
exceeds its margin.  The pair and cycle facts are checked where their
operators are defined: `hecke.locality.G` (pair sums kept, the pair
maximum never grows) and `affine.cone` (Y keeps degree and the cone).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Declared worst-case growth of the maximal exponent for each family.
DECLARED_MARGINS = {"series_e0": 0, "series_f0": 0}


@dataclass
class LocalityLedger:
    observed: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    def record_shift(self, op: str, shift: int):
        allowed = DECLARED_MARGINS[op]
        shift = max(shift, 0)
        if shift > self.observed.get(op, -1):
            self.observed[op] = shift
        if shift > allowed:
            self.violations.append((op, shift, allowed))

    def clear(self):
        """Forget every observation (one ledger per run)."""
        self.observed.clear()
        self.violations.clear()

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        worst = ", ".join(f"{k}:{v}" for k, v in sorted(self.observed.items()))
        state = "ok" if self.ok else f"VIOLATIONS {self.violations}"
        return f"locality margins [{worst or 'none observed'}] {state}"


LEDGER = LocalityLedger()


def max_exponent(x) -> int | None:
    """Largest exponent over all coefficient supports of a tensor window."""
    best = None
    for p in x.terms.values():
        b = p.exponent_bounds()
        if b is None or not b[1]:  # zero, or no variables
            continue
        m = max(b[1])
        best = m if best is None else max(best, m)
    return best


def record_tensor(op: str, before, after):
    b, a = max_exponent(before), max_exponent(after)
    if b is not None and a is not None:
        LEDGER.record_shift(op, a - b)
