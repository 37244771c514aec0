"""Normal ordering: linear rewriting on spinon windows.

The rewriting relations are the coefficient relations of the two
root-variable symmetrization families (which span the exchange family cell
by cell) together with the fusion generators down the sector chain; the
highest-weight cut is structural.  Reduction happens against the fully
reduced row space, so it is terminating, confluent and idempotent by
construction: a normal form is the canonical representative on the
admissible (non-pivot) symbols.

The orientation kills higher sectors first, then symbols whose root-mode
vectors are farther from weakly decreasing order (with minus before plus
at equal modes), so admissible symbols come out weakly ordered - the
precise admissible set is whatever survives, and its counting is certified
by the character comparison, not by a closed formula.

The symmetrization rows come from the run's `kernel.SymmetrizationStream`,
generated once per run and judged once per scale class: the system
eliminates one representative per class (the classes span what the whole
stream spans, so the reduced rows are the same), and soundness certifies
each class once and every relation through its exact scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import (KernelBasis, SymmetrizationStream, sector_caps,
                     symbol_grade)
from .report import CheckReport, record, tally, timer
from .tensor import TensorPoly


def zeta_modes(eps: tuple, m: tuple) -> tuple:
    """Root-variable mode vector of a symbol (leading-term labeling)."""
    N = len(eps)
    return tuple(2 * m[j] - (1 - eps[j]) // 2 + 2 * (N - 1 - j)
                 for j in range(N))


def symbol_of(eps: tuple, n: tuple) -> tuple:
    """The symbol (eps, m) whose root-variable modes are n: the inverse of
    `zeta_modes`."""
    N = len(eps)
    return eps, tuple((n[j] + (1 - eps[j]) // 2 - 2 * (N - 1 - j)) // 2
                      for j in range(N))


def disorder(n: tuple) -> int:
    """How far the mode vector is from weakly decreasing order."""
    return sum(max(0, n[j + 1] - n[j]) for j in range(len(n) - 1))


def rewrite_key(sym: tuple):
    """Pivot order: higher sectors first, most disordered first, then a
    deterministic tie-break (minus before plus at equal modes)."""
    eps, m = sym
    n = zeta_modes(eps, m)
    return (-len(eps), -disorder(n), n, eps)


@dataclass
class NormalForm:
    """Finite sum of admissible spinon symbols in root-mode labels."""

    terms: list  # [(eps, zeta_mode_vector, coeff)]

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for eps, n, c in self.terms:
            tag = "".join("+" if s > 0 else "-" for s in eps) or "vac"
            bits.append(f"{c!r}*[{tag};{','.join(map(str, n))}]")
        return " + ".join(bits)


class RewriteSystem(KernelBasis):
    """Oriented relation window for the sector chain N, N-2, ... of the
    stream's sector and depth: the graded span of the symmetrization rows
    and the fusion generators, pivoting in rewrite order.  Each sector
    feeds one representative per scale class of its stream (the sectors
    below N get streams of their own) and its fusion generators."""

    def __init__(self, stream: SymmetrizationStream):
        super().__init__(sector_caps(stream.N, stream.depth), key=rewrite_key)
        for n, cap in self.caps.items():
            if n >= 2:
                sector = stream if n == stream.N else SymmetrizationStream(n, cap)
                for vec, tag in sector.classes + sector.fus:
                    self.add(vec, tag)

    def normal_form(self, x) -> NormalForm:
        """Canonical admissible representative of a window element."""
        red = self.reduce(x)
        terms = sorted(((eps, zeta_modes(eps, m), c) for (eps, m), c in red.items()),
                       key=lambda t: (len(t[0]), t[1], t[0]))
        return NormalForm(terms)

    def is_admissible(self, sym: tuple) -> bool:
        basis = self.cells.get(symbol_grade(sym))
        return basis is None or sym not in basis.pivots

    def admissible_count(self, grade: tuple, columns: list) -> int:
        basis = self.cells.get(grade)
        if basis is None:
            return len(columns)
        return len(basis.standard_columns(columns))


def rewriter_soundness_check(N: int, kb_hec: KernelBasis, kb_full: KernelBasis,
                             stream: SymmetrizationStream) -> CheckReport:
    """Every oriented rule is a certified member of the relation ideal.

    Symmetrization rows are certified against the exchange window kb_hec,
    the independent operator-column route: one certificate per scale class,
    checked by recomputing its sum, and c times it for each row c times the
    class representative (`SymmetrizationStream.certificates`).  Fusion
    rows are tested against the full window kb_full, whose depth the rules
    are built to.
    """
    rep = CheckReport(f"rewriter soundness N={N}")
    stream.expect(N, kb_full.max_degree)
    n_ab, bad_ab, seconds = tally(cert is None
                                  for _tag, cert in stream.certificates(kb_hec))
    record(rep, f"rewriter.sound.ab.N{N}",
           "every symmetrization rule certifies against the exchange kernel",
           n_ab, bad_ab, f"{n_ab} rules with certificates", seconds)
    n_f, bad_f, seconds = tally(not kb_full.member(vec) for vec, _tag in stream.fus)
    record(rep, f"rewriter.sound.fus.N{N}",
           "every fusion rule lies in the relation window", n_f, bad_f,
           f"{n_f} rules", seconds)
    return rep


def rewriter_completeness_check(N: int, kb: KernelBasis,
                                stream: SymmetrizationStream) -> CheckReport:
    """Admissible counts equal the quotient dimensions of the full relation
    window kb, cell by cell, for the same truncated chain, with the
    rewriting system of the stream; and normal forms are idempotent."""
    rep = CheckReport(f"rewriter completeness N={N}")
    stream.expect(N, kb.max_degree)
    rs = RewriteSystem(stream)
    with timer() as t:
        bad = []
        n_cells = 0
        ranks = kb.ranks()
        grades = set(rs.cells) | set(kb.cells)
        for grade in sorted(grades):
            cols = kb.cell_columns(grade)
            if not cols:
                continue
            n_cells += 1
            cnt = rs.admissible_count(grade, cols)
            quot = len(cols) - ranks.get(grade, 0)
            if cnt != quot:
                bad.append((grade, cnt, quot))
    record(rep, f"rewriter.complete.N{N}",
           "admissible counts equal quotient dimensions on the chain window",
           n_cells, len(bad), f"{len(grades)} cells" + (f"; first {bad[0]}" if bad else ""),
           t.seconds)

    def moved(sym):
        nf1 = rs.normal_form(TensorPoly.monomial(*sym))
        back = {symbol_of(eps, n): c for eps, n, c in nf1.terms}
        return (rs.normal_form(back).terms != nf1.terms
                or not all(map(rs.is_admissible, back)))

    probes, n_bad, seconds = tally(moved(sym) for grade in sorted(kb.cells)[:6]
                                   for sym in kb.cell_columns(grade)[:4])
    record(rep, f"rewriter.idempotent.N{N}",
           "normal forms are fixed points on admissible symbols", probes, n_bad,
           f"{probes} probes", seconds)
    return rep
