"""Exact row reduction over Q(q) (or any exact Python field).

LinearBasis keeps a fully reduced echelon basis of sparse vectors (dicts
from hashable column indices to field elements).  Columns are ordered by a
caller-supplied key, pivots are normalized to 1, and every stored row is
reduced against every other, so `reduce` returns a canonical coset
representative: the same object doubles as the membership oracle (residual
zero) and as the linear rewriting engine (residual = normal form on the
non-pivot columns).  The basis tracks no combinations; a membership
certificate comes from a basis over generators augmented by tag columns
(`KernelBasis.certificate`).

Works verbatim with Fraction entries.
"""

from __future__ import annotations

from typing import Callable, Hashable


def _axpy(target: dict, c, row: dict) -> None:
    """target -= c * row, in place, dropping the entries that cancel."""
    for col, v in row.items():
        s = target.get(col)
        s = -(c * v) if s is None else s - c * v
        if s:
            target[col] = s
        elif col in target:
            del target[col]


class LinearBasis:
    def __init__(self, key: Callable[[Hashable], object] | None = None):
        self.key = key or (lambda c: c)
        self.pivots: dict = {}        # pivot column -> row dict

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        """Canonical representative of vec modulo the span."""
        vec = dict(vec)
        # Rows never contain other rows' pivot columns, so one pass over the
        # original support is enough.
        for col in sorted(vec, key=self.key):
            row = self.pivots.get(col)
            if row is not None and col in vec:
                _axpy(vec, vec[col], row)
        return vec

    def add(self, vec: dict) -> bool:
        """Insert a vector; returns True when the rank grew."""
        vec = self.reduce(vec)
        if not vec:
            return False
        piv = min(vec, key=self.key)
        inv = vec[piv].inv() if hasattr(vec[piv], "inv") else 1 / vec[piv]
        row = {c: v * inv for c, v in vec.items()}
        # eliminate the new pivot from existing rows
        for row2 in self.pivots.values():
            c = row2.get(piv)
            if c is not None:
                _axpy(row2, c, row)
        self.pivots[piv] = row
        return True

    def standard_columns(self, columns) -> list:
        """Columns of the ambient list that are not pivots (the canonical
        complement: images of these span the quotient)."""
        return [c for c in columns if c not in self.pivots]

    def rows(self) -> list[tuple]:
        return sorted(self.pivots.items(), key=lambda kv: self.key(kv[0]))
