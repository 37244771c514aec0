"""Exact row reduction over Q(q) (or any exact Python field).

LinearBasis keeps a fully reduced echelon basis of sparse vectors (dicts
from hashable column indices to field elements).  Columns are ordered by a
caller-supplied key, pivots are normalized to 1, and every stored row is
reduced against every other, so `reduce` returns a canonical coset
representative: the same object doubles as the membership oracle (residual
zero plus a certificate) and as the linear rewriting engine (residual =
normal form on the non-pivot columns).

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
    def __init__(self, key: Callable[[Hashable], object] | None = None,
                 certificates: bool = False):
        self.key = key or (lambda c: c)
        self.pivots: dict = {}        # pivot column -> row dict
        self.combos: dict = {}        # pivot column -> {gen_id: coeff}
        self.certificates = certificates
        self.n_seen = 0

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict, want_cert: bool = False):
        """Canonical representative of vec modulo the span; optionally the
        combination of generator ids that was subtracted."""
        vec = dict(vec)
        cert: dict = {}
        certify = want_cert and self.certificates
        # Rows never contain other rows' pivot columns, so one pass over the
        # original support is enough.
        for col in sorted(vec, key=self.key):
            row = self.pivots.get(col)
            if row is None or col not in vec:
                continue
            c = vec[col]
            _axpy(vec, c, row)
            if certify:
                _axpy(cert, -c, self.combos[col])
        return (vec, cert) if want_cert else vec

    def add(self, vec: dict, gen_id=None) -> bool:
        """Insert a vector; returns True when the rank grew."""
        self.n_seen += 1
        vec, cert = self.reduce(vec, want_cert=True)
        if not vec:
            return False
        piv = min(vec, key=self.key)
        inv = vec[piv].inv() if hasattr(vec[piv], "inv") else 1 / vec[piv]
        row = {c: v * inv for c, v in vec.items()}
        combo = {}
        if self.certificates:
            # row = inv * (gen - sum cert[g] * gen_g)
            gid = gen_id if gen_id is not None else f"gen{self.n_seen}"
            combo = {g: -(v * inv) for g, v in cert.items()}
            combo[gid] = inv
        # eliminate the new pivot from existing rows
        for p2, row2 in self.pivots.items():
            c = row2.get(piv)
            if c is None:
                continue
            _axpy(row2, c, row)
            if self.certificates:
                _axpy(self.combos[p2], c, combo)
        self.pivots[piv] = row
        if self.certificates:
            self.combos[piv] = combo
        return True

    def member(self, vec: dict, want_cert: bool = False):
        """(is_member, residual[, certificate]).

        The certificate expresses vec as sum_{g} cert[g] * generator_g when
        membership holds (requires certificates=True at construction).
        """
        if want_cert and self.certificates:
            res, cert = self.reduce(vec, want_cert=True)
            return (not res, res, cert)
        res = self.reduce(vec)
        return (not res, res)

    def standard_columns(self, columns) -> list:
        """Columns of the ambient list that are not pivots (the canonical
        complement: images of these span the quotient)."""
        return [c for c in columns if c not in self.pivots]

    def rows(self) -> list[tuple]:
        return sorted(self.pivots.items(), key=lambda kv: self.key(kv[0]))
