"""Sparse sums and exact row reduction over Q(q) (or any exact Python field).

`accumulate` is the one add-and-drop-zeros step of the package: every sum
of sparse dicts, from Laurent products and the tensor container to the row
operations here, goes through it, so no zero is ever stored.

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


def accumulate(target: dict, items, scale=None) -> dict:
    """target[k] += v (or scale * v) for each (k, v) in items, in place.

    Entries that cancel are deleted and no zero is ever stored, so a sparse
    dict stays canonical.  Works for any exact value type; `scale` needs
    values that multiply by it.  Returns target.
    """
    for k, v in items:
        if scale is not None:
            v = scale * v
        s = target.get(k)
        s = v if s is None else s + v
        if s:
            target[k] = s
        elif k in target:
            del target[k]
    return target


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
                accumulate(vec, row.items(), -vec[col])
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
                accumulate(row2, row.items(), -c)
        self.pivots[piv] = row
        return True

    def copy(self) -> "LinearBasis":
        """An independent basis with the same rows (each row dict copied)."""
        out = LinearBasis(self.key)
        out.pivots = {col: dict(row) for col, row in self.pivots.items()}
        return out

    def standard_columns(self, columns) -> list:
        """Columns of the ambient list that are not pivots (the canonical
        complement: images of these span the quotient)."""
        return [c for c in columns if c not in self.pivots]

    def rows(self) -> list[tuple]:
        return sorted(self.pivots.items(), key=lambda kv: self.key(kv[0]))
