"""Finite degree windows: the computable stand-in for completed spaces.

A Window fixes per-variable exponent bounds [lo, hi].  Mode windows for
the quotient machinery additionally enforce hi <= 0 (non-positive modes
survive the highest-weight cut; anything above it is killed).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Window:
    arity: int
    lo: int
    hi: int = 0

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty window")

    def exponents(self) -> Iterator[tuple]:
        """All exponent vectors in the box [lo, hi]^arity."""
        rng = range(self.lo, self.hi + 1)
        return itertools.product(rng, repeat=self.arity)

    @property
    def depth(self) -> int:
        return -self.lo


def cone_cell(arity: int, total: int) -> list[tuple]:
    """Non-positive exponent vectors with the given total.  total <= 0.
    Ordered lexicographically."""
    if total > 0:
        return []
    if arity == 0:
        return [()] if total == 0 else []
    out = []

    def rec(i, rem, acc):
        if i == arity - 1:
            out.append(tuple(acc + [rem]))   # rem <= 0 by the range below
            return
        for e in range(rem, 1):
            rec(i + 1, rem - e, acc + [e])

    rec(0, total, [])
    return sorted(out)


def cone_exponents(arity: int, max_degree: int) -> list[tuple]:
    """All non-positive exponent vectors of total degree <= max_degree
    (degree being minus the exponent sum)."""
    out = []
    for d in range(max_degree + 1):
        out.extend(cone_cell(arity, -d))
    return out
