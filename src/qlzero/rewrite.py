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
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import (KernelBasis, iter_ab_relations, iter_fus_generators,
                     kernel_build, sector_caps, symbol_grade, tensor_to_vec)
from .report import CheckReport, check, timer
from .tensor import TensorPoly
from .windows import Window


def zeta_modes(eps: tuple, m: tuple) -> tuple:
    """Root-variable mode vector of a symbol (leading-term labeling)."""
    N = len(eps)
    return tuple(2 * m[j] - (1 - eps[j]) // 2 + 2 * (N - 1 - j)
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

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, NormalForm) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for eps, n, c in self.terms:
            tag = "".join("+" if s > 0 else "-" for s in eps) or "vac"
            bits.append(f"{c!r}*[{tag};{','.join(map(str, n))}]")
        return " + ".join(bits)


class RewriteSystem(KernelBasis):
    """Oriented relation window for the sector chain N, N-2, ...: the
    graded span of the symmetrization rows (and the fusion generators),
    pivoting in rewrite order, without certificates."""

    def __init__(self, N: int, max_degree: int, fusion: bool = True):
        super().__init__(sector_caps(N, max_degree, fusion), key=rewrite_key,
                         certificates=False)
        self.extend(*((iter_ab_relations, iter_fus_generators) if fusion
                      else (iter_ab_relations,)))

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


_SYSTEM_CACHE: dict = {}


def normal_form(x, system: RewriteSystem | None = None) -> NormalForm:
    """Normal form of a window element; builds (and caches) a chain system
    sized to the element when none is supplied."""
    if system is None:
        vec = tensor_to_vec(x) if isinstance(x, TensorPoly) else dict(x)
        if not vec:
            return NormalForm([])
        N = max(len(eps) for eps, _m in vec)
        depth = max(-sum(m) for _eps, m in vec)
        key = (N, depth)
        system = _SYSTEM_CACHE.get(key)
        if system is None:
            system = RewriteSystem(N, depth)
            _SYSTEM_CACHE[key] = system
    return system.normal_form(x)


def rewriter_soundness_check(N: int, window: Window) -> CheckReport:
    """Every oriented rule is a certified member of the relation ideal.

    Symmetrization rows are tested against the exchange kernel built by the
    independent operator-column route; fusion rows against the full family.
    """
    rep = CheckReport(f"rewriter soundness N={N}")
    D = window.depth
    kb_hec = kernel_build(N, Window(N, -D), families=("HEC", "HWT"))
    kb_full = kernel_build(N, Window(N, -D), families=("HEC", "FUS", "HWT"))
    with timer() as t:
        n_ab = bad_ab = 0
        for vec, tag in iter_ab_relations(N, D):
            ok, _res, cert = kb_hec.member(vec, want_cert=True)
            n_ab += 1
            if not (ok and cert):
                bad_ab += 1
    check(rep, f"rewriter.sound.ab.N{N}",
          "every symmetrization rule certifies against the exchange kernel",
          bad_ab == 0, f"{n_ab} rules with certificates", bad_ab, t.seconds)
    with timer() as t:
        n_f = bad_f = 0
        for vec, tag in iter_fus_generators(N, D):
            ok, _res = kb_full.member(vec)
            n_f += 1
            if not ok:
                bad_f += 1
    check(rep, f"rewriter.sound.fus.N{N}",
          "every fusion rule lies in the relation window", bad_f == 0,
          f"{n_f} rules", bad_f, t.seconds)
    return rep


def rewriter_completeness_check(N: int, window: Window) -> CheckReport:
    """Admissible counts equal quotient dimensions, cell by cell, for the
    same truncated chain; and normal forms are idempotent."""
    rep = CheckReport(f"rewriter completeness N={N}")
    D = window.depth
    rs = RewriteSystem(N, D)
    kb = kernel_build(N, Window(N, -D), families=("HEC", "FUS", "HWT"))
    with timer() as t:
        bad = []
        ranks = kb.ranks()
        grades = set(rs.cells) | set(kb.cells)
        for grade in sorted(grades):
            cols = kb.cell_columns(grade)
            if not cols:
                continue
            cnt = rs.admissible_count(grade, cols)
            quot = len(cols) - ranks.get(grade, 0)
            if cnt != quot:
                bad.append((grade, cnt, quot))
    check(rep, f"rewriter.complete.N{N}",
          "admissible counts equal quotient dimensions on the chain window",
          not bad, f"{len(grades)} cells" + (f"; first {bad[0]}" if bad else ""),
          len(bad), t.seconds)

    with timer() as t:
        ok = True
        probes = 0
        for grade in sorted(kb.cells)[:6]:
            for sym in kb.cell_columns(grade)[:4]:
                x = TensorPoly.monomial(sym[0], sym[1])
                nf1 = rs.normal_form(x)
                back = {}
                for eps, n, c in nf1.terms:
                    N2 = len(eps)
                    m = tuple((n[j] + (1 - eps[j]) // 2 - 2 * (N2 - 1 - j)) // 2
                              for j in range(N2))
                    back[(eps, m)] = c
                nf2_terms = rs.normal_form(back).terms
                ok &= nf2_terms == nf1.terms
                ok &= all(rs.is_admissible((eps,
                                            tuple((n[j] + (1 - eps[j]) // 2
                                                   - 2 * (len(eps) - 1 - j)) // 2
                                                  for j in range(len(eps)))))
                          for eps, n, c in nf1.terms)
                probes += 1
    check(rep, f"rewriter.idempotent.N{N}",
          "normal forms are fixed points on admissible symbols", ok,
          f"{probes} probes", 0 if ok else 1, t.seconds)
    return rep
