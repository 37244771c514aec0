"""Locality ledger: declared versus observed mode-shift margins.

Each operator family declares the worst-case shift of exponent bounds it
may cause.  Suites record the observed shift of every application; a run
fails its locality assertion if an observation ever exceeds the declared
margin.  This is the runtime face of the locality lemmas: pair operators
preserve pair sums and never increase the pair maximum, the cycle operator
only relabels, and the level-0 generators consume exactly one unit from
the affinization shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Declared worst-case growth of the maximal exponent for each family.
DECLARED_MARGINS = {
    "swap": 0,
    "divided_difference": 0,
    "G": 0,
    "S": 0,
    "Z": 0,
    "Y": 0,
    "subst_cycle": 0,
    "series_e0": 0,
    "series_f0": 0,
    "specialize": 0,
    "uq.e0aff": 1,   # the affinization step shifts one mode by one
    "uq.f0aff": 1,
    "fuse_prefactor": 1,
}

@dataclass
class LocalityLedger:
    observed: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    def record_shift(self, op: str, shift: int):
        shift = max(shift, 0)
        if shift > self.observed.get(op, -1):
            self.observed[op] = shift
        allowed = DECLARED_MARGINS.get(op)
        if allowed is not None and shift > allowed:
            self.violations.append((op, shift, allowed))

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


def record_cone(op: str, result):
    m = max_exponent(result)
    if m is not None and m > 0:
        LEDGER.violations.append((op, m, "cone"))
