"""Finite windows of the relation ideal and the membership oracle.

Everything lives modulo the highest-weight family (positive modes die), so
all symbol windows are cone cells: non-positive mode vectors of fixed total
degree.  On such cells the exchange family has exact finite generators

    gen(eps, mu, j) = S^{(j)} applied to the symbol at mu
                      - sum_m ([z^{-mu}] G_{j,j+1} z^{-m}) symbol at m,

the sum running over the finitely many cone modes on the pair line of mu.
Fusion generators tie the sector-N window to the sector-(N-2) window and
are extracted from symbol series (`TensorPoly.window`).

Cells are keyed by (energy, weight), where energy is the sector-consistent
grade: energy = degree - sum(offsets) - floor(N/2) + (number of minus
signs).  Fusion is energy- and weight-homogeneous, so a KernelBasis over
several sectors decomposes cell by cell.

The span is built without combinations.  A membership certificate is
solved on request, cell by cell, against the generators regenerated from
the span's families and caps, and is returned only after the sum it names
has been recomputed and compared with the vector exactly.

A run holds its windows in one KernelTable, which eliminates each span
once: a window with fusion extends a copy of the exchange window of its
depth rather than eliminating the exchange family again.  The table also
generates each symmetrization stream once per run (SymmetrizationStream):
the coefficient relations of the root-variable symmetrization families,
grouped into exact scale classes, so that prop8 and the rewriter judge each
class once and still count every relation.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from itertools import groupby
from pathlib import Path

from .hecke import G_poly, R_numerator_op, S_PAIR
from .laurent import LaurentPoly, lp_insert_var, lp_specialize, lp_swap
from .linalg import LinearBasis, accumulate
from .report import CheckReport, record, tally, timer
from .scalars import (QP_ONE, RatFuncQ, qp_div_exact, qp_gcd, qp_mul, qpow,
                      qq_int, RatFuncQ as _RF)
from .tensor import MINUS, PLUS, TensorPoly, kappa, sign_strings
from .windows import cone_cell

FAMILIES = ("HEC", "FUS", "HWT")
# the exchange window: without FUS, the single sector N
EXCHANGE = ("HEC", "HWT")


def sum_kappa(N: int) -> int:
    return sum(kappa(N))


def sector_shift(N: int, w: int) -> int:
    """Energy offset of the sector-N weight-w block."""
    return -sum_kappa(N) - N // 2 + (N - w) // 2


def symbol_grade(sym: tuple) -> tuple[int, int]:
    """(energy, weight) of a symbol (eps, m)."""
    eps, m = sym
    N = len(eps)
    w = sum(eps)
    return -sum(m) + sector_shift(N, w), w


def symbol_key(sym: tuple):
    """Column order: higher sectors first, then deeper spread, then lex."""
    eps, m = sym
    return (-len(eps), tuple(sorted(m)), m, eps)


def tensor_to_vec(x: TensorPoly) -> dict:
    out = {}
    for eps, p in x.terms.items():
        for m, c in p.terms.items():
            out[(eps, m)] = c
    return out


def vec_to_tensor(vec: dict, arity: int, nvars: int | None = None) -> TensorPoly:
    out = TensorPoly.zero(arity, nvars)
    accumulate(out.terms, ((eps, LaurentPoly.monomial(len(m), m, c))
                           for (eps, m), c in vec.items()))
    return out


# -- generator families ------------------------------------------------------


def g_row_coeffs(N: int, mu: tuple, j: int) -> dict:
    """{m: coefficient of z^{-mu} in G_{j,j+1} z^{-m}} over the cone line."""
    s = mu[j - 1] + mu[j]
    out = {}
    target = tuple(-e for e in mu)
    for a in range(s, 1):
        b = s - a
        if b > 0:
            continue
        m = list(mu)
        m[j - 1], m[j] = a, b
        mono = LaurentPoly.monomial(N, tuple(-x for x in m))
        c = G_poly(mono, j, j + 1).terms.get(target)
        if c:
            out[tuple(m)] = c
    return out


def hec_generator(eps: tuple, mu: tuple, j: int, g_row: dict | None = None) -> dict:
    """Exchange-family generator at source eps, cone target mode mu, pair j;
    g_row is `g_row_coeffs(len(eps), mu, j)`, which does not depend on eps."""
    vec = accumulate({}, (((eps[:j - 1] + ab + eps[j + 1:], mu), c)
                          for ab, c in S_PAIR[(eps[j - 1], eps[j])]))
    if g_row is None:
        g_row = g_row_coeffs(len(eps), mu, j)
    return accumulate(vec, (((eps, m), -c) for m, c in g_row.items()))


def iter_hec_generators(N: int, max_degree: int):
    """All exchange generators with support in degrees <= max_degree, one
    per cone target mode, source string and pair; the G row of a (mode,
    pair) is computed once for all source strings.

    Targets with a positive mode add nothing: G keeps a pair's exponents
    inside their segment, so such a target has no cone column, and its slot
    part dies under the highest-weight cut.
    """
    strs = sign_strings(N)
    for d in range(max_degree + 1):
        for mu in cone_cell(N, -d):
            g_rows = {j: g_row_coeffs(N, mu, j) for j in range(1, N)}
            for eps in strs:
                for j in range(1, N):
                    vec = hec_generator(eps, mu, j, g_rows[j])
                    if vec:
                        yield vec, f"HEC.N{N}.j{j}.{_eps_str(eps)}.{mu}"


def fusion_prefactor(n: int, j: int, nvars: int) -> LaurentPoly:
    """prod_{i<j} (z_i - q^2 z_j) prod_{i>j} (q^{-2} z_j - q^2 z_i) in the
    reduced variables (spectator at slot j), for the sector-n fusion."""
    out = LaurentPoly.one(nvars)
    for i in range(1, j):
        out = out * (LaurentPoly.var(nvars, i)
                     - LaurentPoly.var(nvars, j).scale_coeffs(qpow(2)))
    for i in range(j + 1, nvars + 1):
        out = out * (LaurentPoly.var(nvars, j).scale_coeffs(qpow(-2))
                     - LaurentPoly.var(nvars, i).scale_coeffs(qpow(2)))
    return out


def fusion_weight(n: int, j: int, eps_j: int) -> RatFuncQ:
    """(-q)^{n-j+(eps_j-1)/2}."""
    k = n - j + (eps_j - 1) // 2
    c = qpow(k)
    return c if k % 2 == 0 else -c


def specialize_adjacent(x: TensorPoly, j: int) -> TensorPoly:
    """Set the (j+1)-st series variable to q^{-2} times the j-th in every
    coefficient (variables after j+1 re-index down)."""
    return x.map_coeffs(lambda p: lp_specialize(p, j + 1, j, qpow(-2)),
                        nvars=x.nvars - 1)


def fusion_relation(eps: tuple, j: int, max_degree: int, apply=None) -> TensorPoly:
    """The fusion relation of the window of eps at pair j, as a symbol series.

    The window specialized on the fusion locus minus, when slots j, j+1
    carry opposite signs, the window of the reduced string with the
    spectator variable, the prefactor and the channel weight attached.  The
    reduced window is shallower by the prefactor degree n-2.  With
    apply(series) given, it acts on both windows first.
    """
    n = len(eps)

    def window(s, degree):
        w = TensorPoly.window(s, degree)
        return w if apply is None else apply(w)

    lhs = specialize_adjacent(window(eps, max_degree), j)
    if eps[j - 1] + eps[j]:
        return lhs
    red = eps[: j - 1] + eps[j + 1:]
    pref = fusion_prefactor(n, j, n - 1)
    rhs = window(red, max(max_degree - (n - 2), 0)).map_coeffs(
        lambda p: lp_insert_var(p, j) * pref, nvars=n - 1)
    return lhs - rhs.scale(fusion_weight(n, j, eps[j - 1]))


def coefficients(series: TensorPoly, max_degree: int):
    """(exponent, vector) pairs of a symbol series of total degree <=
    max_degree: the coefficients that a window of that depth holds
    completely.  Every vector is nonzero."""
    for expo, vec in series.extract_all().items():
        if sum(expo) <= max_degree:
            yield expo, vec


def iter_fus_generators(n: int, max_degree: int):
    """Fusion generators from sector n into sector n-2.

    For each source string and fusion pair j, every coefficient of the
    fusion relation up to max_degree is a generator (complete by
    homogeneity).
    """
    if n < 2:
        return
    for j in range(1, n):
        for eps in sign_strings(n):
            for expo, vec in coefficients(fusion_relation(eps, j, max_degree), max_degree):
                yield vec, f"FUS.n{n}.j{j}.{_eps_str(eps)}.{expo}"


def _eps_str(eps: tuple) -> str:
    return "".join("+" if s > 0 else "-" for s in eps) or "0"


# family name -> generator family, a callable (n, cap) -> (vec, tag) pairs
GENERATORS = {"HEC": iter_hec_generators, "FUS": iter_fus_generators}


# -- the kernel basis --------------------------------------------------------

KERNEL_FORMAT = 2
_HEADER = "# qlzero-kernel "


def sector_caps(N: int, max_degree: int, fusion: bool = True) -> dict:
    """Degree caps {n: cap} down the sector chain N, N-2, ..., 0 or 1 (the
    single sector N without fusion): each fusion step n -> n-2 spends the
    prefactor degree n-2."""
    caps = {}
    cap = max_degree
    for n in range(N, -1, -2) if fusion else (N,):
        caps[n] = max(cap, 0)
        cap -= max(n - 2, 0)
    return caps


class KernelBasis:
    """Graded relation span: one row-reduced LinearBasis per (energy, weight)
    cell, over the window of the sector degree caps {n: cap}.

    The relation window names its generator families, so it can certify
    membership on request; the rewriting system and the rank comparisons
    use the same span with their own column order and no families.
    """

    def __init__(self, caps: dict, families: tuple = (), key=symbol_key):
        for f in families:
            if f not in FAMILIES:
                raise ValueError(f"unknown family {f!r}")
        self.caps = dict(caps)
        self.families = tuple(families)
        self.key = key
        self.cells: dict[tuple, LinearBasis] = {}
        self.n_generators = 0
        self.provenance: dict[str, int] = {}
        # filled by `certificate` requests
        self._generators: dict | None = None   # grade -> {tag: generator}
        self._cert_cells: dict = {}            # grade -> augmented basis

    @property
    def sectors(self) -> tuple:
        return tuple(self.caps)

    @property
    def max_degree(self) -> int:
        return max(self.caps.values(), default=0)

    def add(self, vec: dict, tag: str) -> bool:
        """File a homogeneous vector in its cell; True when the rank grew."""
        grades = {symbol_grade(s) for s in vec}
        if len(grades) != 1:
            raise ValueError(f"generator not homogeneous: {sorted(grades)} ({tag})")
        self.n_generators += 1
        fam = tag.split(".", 1)[0]
        self.provenance[fam] = self.provenance.get(fam, 0) + 1
        grade = grades.pop()
        basis = self.cells.get(grade)
        if basis is None:
            basis = LinearBasis(key=self.key)
            self.cells[grade] = basis
        return basis.add(vec)

    def _generate(self, families):
        """(vec, tag) pairs of generator families, callables (n, cap), down
        the sector chain (sectors below 2 carry no relations)."""
        for n, cap in self.caps.items():
            if n < 2:
                continue
            for family in families:
                yield from family(n, cap)

    def extend(self, *families) -> "KernelBasis":
        """Feed generator families down the sector chain."""
        for vec, tag in self._generate(families):
            self.add(vec, tag)
        return self

    def copy(self) -> "KernelBasis":
        """An independent copy of the span and its counters, to extend
        without touching this one; the certificate memo starts empty."""
        kb = KernelBasis(self.caps, self.families, self.key)
        kb.cells = {grade: basis.copy() for grade, basis in self.cells.items()}
        kb.n_generators = self.n_generators
        kb.provenance = dict(self.provenance)
        return kb

    def rank(self) -> int:
        return sum(b.rank for b in self.cells.values())

    def ranks(self) -> dict:
        """{grade: rank} over the cells of nonzero rank."""
        return {g: b.rank for g, b in self.cells.items() if b.rank}

    def ambient_dimension(self) -> int:
        return sum(len(self.cell_columns(g)) for g in self.cells)

    def cell_columns(self, grade: tuple) -> list:
        """All symbols of the given (energy, weight) inside the window."""
        e0, w = grade
        out = []
        for n, cap in self.caps.items():
            if abs(w) > n or (n - w) % 2:
                continue
            d = e0 - sector_shift(n, w)
            if d < 0 or d > cap:
                continue
            for eps in sign_strings(n):
                if sum(eps) != w:
                    continue
                for m in cone_cell(n, -d):
                    out.append((eps, m))
        return sorted(out, key=symbol_key)

    def _split(self, vec: dict) -> dict:
        """{grade: component} of a symbol vector; ValueError for support
        outside the window."""
        by_cell: dict[tuple, dict] = {}
        for sym, c in vec.items():
            eps, m = sym
            cap = self.caps.get(len(eps))
            if cap is None:
                raise ValueError(f"sector {len(eps)} outside the chain")
            if m and max(m) > 0:
                raise ValueError("positive mode: apply the highest-weight cut first")
            if -sum(m) > cap:
                raise ValueError(f"support outside window: {sym}")
            by_cell.setdefault(symbol_grade(sym), {})[sym] = c
        return by_cell

    def reduce(self, x) -> dict:
        """Residual of a TensorPoly or symbol vector modulo the span, cell by
        cell."""
        vec = tensor_to_vec(x) if isinstance(x, TensorPoly) else x
        residual: dict = {}
        for grade, comp in self._split(vec).items():
            basis = self.cells.get(grade)
            residual.update(comp if basis is None else basis.reduce(comp))
        return residual

    def member(self, x) -> bool:
        """Whether x lies in the span (`reduce` gives the residual)."""
        return not self.reduce(x)

    def certificate(self, x) -> dict | None:
        """{generator tag: coefficient} with x = sum_g c_g * gen_g, returned
        only after that sum is recomputed and compared with x exactly; None
        when x is not in the span.

        Each cell x touches gets, once, a basis of its generators (from the
        families and caps, so a loaded kernel certifies too) augmented by
        1*[tag], every symbol column ordered before every tag column:
        reducing x there leaves a symbol residual, zero exactly for members,
        and minus the certificate on the tag columns.
        """
        if not self.families:
            raise ValueError("span has no generator families to certify from")
        vec = tensor_to_vec(x) if isinstance(x, TensorPoly) else x
        gens, cert = {}, {}
        for grade, comp in self._split(vec).items():
            basis, cell_gens = self._cert_cell(grade)
            gens.update(cell_gens)
            for col, c in basis.reduce(comp).items():
                if not isinstance(col, str):
                    return None
                cert[col] = -c
        total: dict = {}
        for tag, c in cert.items():
            accumulate(total, gens[tag].items(), c)
        if total != {s: v for s, v in vec.items() if v}:
            raise ArithmeticError("certificate does not reproduce the vector")
        return cert

    def _cert_cell(self, grade: tuple) -> tuple:
        """(augmented basis, {tag: generator}) of one cell."""
        if self._generators is None:
            self._generators = {}
            for gen, tag in self._generate(
                    [g for fam, g in GENERATORS.items() if fam in self.families]):
                self._generators.setdefault(symbol_grade(next(iter(gen))), {})[tag] = gen
        gens = self._generators.get(grade, {})
        if grade not in self._cert_cells:
            basis = self._cert_cells[grade] = LinearBasis(
                key=lambda c: (1, c) if isinstance(c, str) else (0, self.key(c)))
            for tag, gen in gens.items():
                basis.add({**gen, tag: qq_int(1)})
        return self._cert_cells[grade], gens

    # -- persistence --------------------------------------------------------

    def save_text(self) -> str:
        lines = [_HEADER + json.dumps({
            "format": KERNEL_FORMAT,
            "caps": [[n, cap] for n, cap in self.caps.items()],
            "families": list(self.families),
            "generators": self.n_generators,
            "provenance": self.provenance,
        }, sort_keys=True)]
        symbols: dict[tuple, int] = {}

        def sid(sym):
            i = symbols.get(sym)
            if i is None:
                i = len(symbols)
                symbols[sym] = i
                eps, m = sym
                lines.append(f"S {i} {_eps_str(eps)} " + " ".join(map(str, m)))
            return i

        r = 0
        for grade in sorted(self.cells):
            basis = self.cells[grade]
            for piv, row in basis.rows():
                lines.append(f"R {r} {grade[0]} {grade[1]}")
                for col in sorted(row, key=symbol_key):
                    lines.append(f"T {r} {sid(col)} {row[col].to_text()}")
                r += 1
        return "\n".join(lines) + "\n"

    @staticmethod
    def load_text(text: str) -> "KernelBasis":
        """Inverse of save_text; ValueError for any other file format."""
        lines = text.splitlines()
        if not lines or not lines[0].startswith(_HEADER):
            raise ValueError("not a kernel file")
        head = json.loads(lines[0][len(_HEADER):])
        if head.get("format") != KERNEL_FORMAT:
            raise ValueError(f"kernel file format {head.get('format')!r}, "
                             f"expected {KERNEL_FORMAT}")
        kb = KernelBasis(dict(head["caps"]), tuple(head["families"]))
        symbols: dict[int, tuple] = {}
        rows: dict[int, dict] = {}
        for ln in lines[1:]:
            if not ln.strip():
                continue
            parts = ln.split()
            if parts[0] == "S":
                i = int(parts[1])
                eps = tuple(1 if ch == "+" else -1 for ch in parts[2]) \
                    if parts[2] != "0" else ()
                m = tuple(int(x) for x in parts[3:])
                symbols[i] = (eps, m)
            elif parts[0] == "R":
                rows[int(parts[1])] = {}
            elif parts[0] == "T":
                r, c = int(parts[1]), int(parts[2])
                val = _RF.from_text(ln.split(None, 3)[3])
                rows[r][symbols[c]] = val
        for r in sorted(rows):
            kb.add(rows[r], f"row{r}")
        kb.n_generators = head["generators"]
        kb.provenance = dict(head["provenance"])
        return kb


def kernel_build(N: int, depth: int, families=("HEC", "FUS", "HWT")) -> KernelBasis:
    """Build the relation-window basis of the modes -depth..0 for the sector
    chain N, N-2, ...

    The highest-weight family is realized structurally (cone windows); it
    is listed in the manifest when requested.  Without FUS only the single
    sector N is used.
    """
    if depth < 0:
        raise ValueError(f"relation windows need depth >= 0, got {depth}")
    kb = KernelBasis(sector_caps(N, depth, "FUS" in families), families)
    return kb.extend(*(gen for fam, gen in GENERATORS.items() if fam in families))


def full_window(exch: KernelBasis, families=FAMILIES) -> KernelBasis:
    """`kernel_build(N, depth, families)` from the exchange window of the
    same N and depth (its families without FUS): a copy of it over the
    whole sector chain, extended by the generators it lacks, FUS at every
    sector and its own families below sector N.  The reduced echelon form
    of a span is unique, so the rows and the counters, and with them
    `save_text`, equal those of the direct build.
    """
    if (len(exch.caps) != 1 or "FUS" not in families
            or sorted(exch.families) != sorted(set(families) - {"FUS"})):
        raise ValueError(f"not the exchange window of {families}: caps "
                         f"{exch.caps}, families {exch.families}")
    (N, depth), = exch.caps.items()
    kb = exch.copy()
    kb.caps, kb.families = sector_caps(N, depth), tuple(families)
    for n, cap in kb.caps.items():
        if n < 2:
            continue
        for fam, gen in GENERATORS.items():
            if fam == "FUS" or (n < N and fam in families):
                for vec, tag in gen(n, cap):
                    kb.add(vec, tag)
    return kb


class KernelTable:
    """The relation windows of one run, keyed like their cache files: each
    (N, depth, families) span is loaded from the cache directory or built
    once per run, and handed out read-only (only the certificate memo of a
    span fills).  A window with FUS is the `full_window` of the table's
    exchange window.  A span built here is written to the cache when a
    caller asks for it, so an exchange window built only to derive a full
    one gets no file.  Beside the windows the table hands out one
    symmetrization stream per (N, depth), for prop8 and the rewriter.
    """

    def __init__(self, cache: Path | None = None):
        self.cache = cache
        self.spans: dict[str, KernelBasis] = {}
        self.streams: dict[tuple, SymmetrizationStream] = {}
        self._unsaved: set[str] = set()

    def stream(self, N: int, depth: int) -> SymmetrizationStream:
        """The symmetrization stream of sector N at this depth, generated
        once per run."""
        s = self.streams.get((N, depth))
        if s is None:
            s = self.streams[(N, depth)] = SymmetrizationStream(N, depth)
        return s

    def get(self, N: int, depth: int, families: tuple) -> KernelBasis:
        key = _table_key(N, depth, families)
        kb = self._span(N, depth, families)
        if self.cache is not None and key in self._unsaved:
            self._unsaved.discard(key)
            (self.cache / f"kernel-{key}.txt").write_text(kb.save_text())
        return kb

    def _span(self, N: int, depth: int, families: tuple) -> KernelBasis:
        key = _table_key(N, depth, families)
        kb = self.spans.get(key)
        if kb is None:
            kb = self._load(N, depth, families)
            if kb is None:
                if "FUS" in families:
                    exch = tuple(f for f in families if f != "FUS")
                    kb = full_window(self._span(N, depth, exch), families)
                else:
                    kb = kernel_build(N, depth, families)
                self._unsaved.add(key)
            self.spans[key] = kb
        return kb

    def _load(self, N: int, depth: int, families: tuple) -> KernelBasis | None:
        """The span from its cache file; None without one, and for a file of
        another format or window (it is rebuilt)."""
        if self.cache is None:
            return None
        path = self.cache / f"kernel-{_table_key(N, depth, families)}.txt"
        if not path.exists():
            return None
        try:
            kb = KernelBasis.load_text(path.read_text())
        except ValueError:
            return None
        if (kb.caps == sector_caps(N, depth, "FUS" in families)
                and sorted(kb.families) == sorted(families)):
            return kb
        return None


def _table_key(N: int, depth: int, families: tuple) -> str:
    return f"N{N}-D{depth}-" + "-".join(sorted(families))


# -- statement-level checks --------------------------------------------------


def prop9_check(N: int, exch: KernelBasis) -> CheckReport:
    """Spans of the cross-multiplied commutation family and of the exchange
    window exch agree, cell by cell, inside the window's depth.  The union
    is a copy of the commutation span extended by the rows of exch."""
    depth = exch.max_degree
    if exch.caps != sector_caps(N, depth, fusion=False):
        raise ValueError(f"not an exchange window of sector {N}: caps {exch.caps}")
    rep = CheckReport(f"commutation vs exchange spans N={N}")
    comm = KernelBasis(exch.caps)
    with timer() as t:
        for eps in sign_strings(N):
            for j in range(1, N):
                w = TensorPoly.window(eps, depth)
                nv = w.nvars
                zj = LaurentPoly.var(nv, j)
                zj1 = LaurentPoly.var(nv, j + 1)
                swapped = w.map_coeffs(lambda p: lp_swap(p, j, j + 1))
                # (q z_{j+1} - q^{-1} z_j) K w - (S z_{j+1} - S^{-1} z_j) w
                fam_a = (swapped.mul_poly(zj1.scale_coeffs(qpow(1))
                                          - zj.scale_coeffs(qpow(-1)))
                         - R_numerator_op(w, j, j + 1, j, j + 1))
                # a target of exponent sum t draws on symbols of degree t-1,
                # so everything up to t = depth+1 is complete in this window
                for _expo, vec in coefficients(fam_a, depth + 1):
                    comm.add(vec, "A")
        union = comm.copy()
        for basis in exch.cells.values():
            for row in basis.pivots.values():
                union.add(row, "HEC")
    ranks_a, ranks_b, ranks_u = comm.ranks(), exch.ranks(), union.ranks()
    cells = set(ranks_a) | set(ranks_b) | set(ranks_u)
    bad = sum(1 for c in cells if not ranks_a.get(c) == ranks_b.get(c) == ranks_u.get(c))
    ra, rb, ru = sum(ranks_a.values()), sum(ranks_b.values()), sum(ranks_u.values())
    record(rep, f"prop9.spans.N{N}",
           "commutation family spans the exchange family and conversely",
           len(cells), bad, f"ranks: commutation {ra}, exchange {rb}, union {ru}",
           t.seconds)
    return rep


def _fbar_shift(eps_bar: tuple) -> tuple:
    N = len(eps_bar)
    return tuple((1 + eps_bar[j]) // 2 - 2 * (N - 1 - j) for j in range(N))


def _fbar_order(N: int, max_degree: int) -> int:
    """Truncation order of the expanded geometric factors."""
    return 2 * max_degree + 2 * N


def fbar_series(eps_bar: tuple, max_degree: int) -> TensorPoly:
    """Root-variable dressing of the sign-flipped window series.

    Symbols are those of the flipped string; values live in root variables
    (z = zeta^2), carrying the parity prefactor, the triangular monomial
    and the geometric factors expanded to `_fbar_order`.  Coefficients are
    complete exactly at the targets accepted by fbar_target_complete.
    """
    N = len(eps_bar)
    flip = tuple(-s for s in eps_bar)
    # root-variable values: exponent doubling plus the parity/monomial shift
    shift = _fbar_shift(eps_bar)
    out = TensorPoly.window(flip, max_degree).map_coeffs(lambda p: LaurentPoly(
        N, {tuple(2 * e[i] + shift[i] for i in range(N)): c for e, c in p.terms.items()}))
    # expanded factors 1/(1 - q^2 z_k/z_j) = sum_n q^{2n} zeta_k^{2n} zeta_j^{-2n}
    for j in range(1, N + 1):
        for k in range(j + 1, N + 1):
            geo = {}
            for n in range(_fbar_order(N, max_degree) + 1):
                e = [0] * N
                e[j - 1] = -2 * n
                e[k - 1] = 2 * n
                geo[tuple(e)] = qpow(2 * n)
            out = out.mul_poly(LaurentPoly(N, geo))
    return out


def fbar_target_complete(eps_bar: tuple, expo: tuple, max_degree: int,
                         extra: int = 0) -> bool:
    """Whether the coefficient at this exponent of fbar_series is complete:
    the redistribution flow into every index suffix must be realizable
    within the expanded terms (with slack for a multiplier of degree
    `extra` applied after the dressing)."""
    if not _fbar_target_ok(eps_bar, expo, max_degree, extra):
        return False
    shift = _fbar_shift(eps_bar)
    N = len(eps_bar)
    for t in range(1, N):
        flow2 = sum(expo[k] - shift[k] for k in range(t, N))
        if flow2 > 2 * (_fbar_order(N, max_degree) - extra):
            return False
    return True


def _swap_expo(expo: tuple, k: int) -> tuple:
    e = list(expo)
    e[k - 1], e[k] = e[k], e[k - 1]
    return tuple(e)


def iter_ab_relations(N: int, max_degree: int):
    """Coefficient relations of the two root-variable symmetrization
    families, restricted to targets whose every constituent (swapped or
    not) is complete at the truncation order."""
    fbar = {eps: fbar_series(eps, max_degree) for eps in sign_strings(N)}
    for eps_bar in sign_strings(N):
        for k in range(1, N):
            if eps_bar[k - 1] != eps_bar[k]:
                continue
            base = fbar[eps_bar]
            diff = base.map_coeffs(lambda p: lp_swap(p, k, k + 1)) - base
            for expo, vec in diff.extract_all().items():
                if (fbar_target_complete(eps_bar, expo, max_degree)
                        and fbar_target_complete(eps_bar, _swap_expo(expo, k),
                                                 max_degree)):
                    yield vec, f"A.N{N}.k{k}.{_eps_str(eps_bar)}.{expo}"
    for outer in sign_strings(N - 2) if N >= 2 else []:
        for k in range(1, N):
            eps_pm = outer[: k - 1] + (PLUS, MINUS) + outer[k - 1:]
            eps_mp = outer[: k - 1] + (MINUS, PLUS) + outer[k - 1:]
            a, b = fbar[eps_pm], fbar[eps_mp]
            sa = a.map_coeffs(lambda p: lp_swap(p, k, k + 1))
            sb = b.map_coeffs(lambda p: lp_swap(p, k, k + 1))
            nv = a.nvars
            zk = LaurentPoly.var(nv, k)
            zk1 = LaurentPoly.var(nv, k + 1)
            mult_sw = zk1 + zk.scale_coeffs(qpow(1))
            mult_id = zk + zk1.scale_coeffs(qpow(1))
            comb = (sa + sb).mul_poly(mult_sw) - (a + b).mul_poly(mult_id)
            for expo, vec in comb.extract_all().items():
                swapped = _swap_expo(expo, k)
                if all(fbar_target_complete(eps, e2, max_degree, extra=1)
                       for eps in (eps_pm, eps_mp) for e2 in (expo, swapped)):
                    yield vec, f"B.N{N}.k{k}.{_eps_str(eps_pm)}.{expo}"


def _fbar_target_ok(eps_bar: tuple, expo: tuple, max_degree: int,
                    extra: int = 0) -> bool:
    # total root-variable exponent fixes the symbol degree:
    # tot = 2*deg + nplus - N(N-1) + extra  =>  solve for deg;
    # extra is the degree of any multiplier applied after the dressing
    N = len(eps_bar)
    nplus = sum(1 for s in eps_bar if s > 0)
    deg2 = sum(expo) - extra - nplus + N * (N - 1)
    return deg2 % 2 == 0 and 0 <= deg2 // 2 <= max_degree


def _integral_form(vec: dict) -> tuple:
    """(support, polynomials): vec over its sorted support, times a common
    denominator, divided by the integer content and the power of q that
    all entries share, the first leading coefficient made positive.  Two
    vectors that differ by a factor a*q^k (a rational) get the same form."""
    syms = sorted(vec)
    vals = [vec[s] for s in syms]
    den = QP_ONE
    for c in vals:
        if c.den != den:
            den = qp_mul(den, qp_div_exact(c.den, qp_gcd(den, c.den)))
    polys = [c.num if c.den == den else qp_mul(c.num, qp_div_exact(den, c.den))
             for c in vals]
    val = min(next(i for i, x in enumerate(p) if x) for p in polys)
    g = math.gcd(*(x for p in polys for x in p))
    if polys[0][-1] < 0:
        g = -g
    return tuple(syms), tuple(tuple(x // g for x in p[val:]) for p in polys)


def _primitive_form(form: tuple) -> tuple:
    """An integral form divided by the polynomial gcd of its entries.  Z[q]
    has unique factorization, so two nonzero vectors have the same
    primitive form exactly when one is c times the other for some c in
    Q(q)."""
    syms, polys = form
    g = min(polys, key=len)
    for p in polys:
        if len(g) == 1:
            return form
        g = qp_gcd(g, p)
    return syms, tuple(qp_div_exact(p, g) for p in polys)


class SymmetrizationStream:
    """The symmetrization relations of sector N to a depth
    (`iter_ab_relations`), generated once and judged once per scale class.

    Entries v and u are in one scale class when v = c*u for some c in Q(q).
    The class of an entry is found by comparing exact primitive forms in
    Z[q] (`_primitive_form`), as integer tuples, so no hash or sampled value
    decides it; the first entry of a class represents it.  A verdict on the
    representative u holds for every entry of its class: membership in a
    span is invariant under nonzero scaling, and a certificate of u, checked
    by recomputation, times the exactly checked scale c certifies c*u.
    Each entry is still counted and reported on its own.  The stream also
    holds sector N's fusion generators, extracted on first use.
    """

    def __init__(self, N: int, depth: int):
        self.N, self.depth = N, depth
        self.entries: list = []   # (vec, tag, class index), in stream order
        self.classes: list = []   # (vec, tag) of the first entry of each class
        forms: dict = {}          # integral form -> class index
        index: dict = {}          # primitive form -> class index
        for vec, tag in iter_ab_relations(N, depth):
            form = _integral_form(vec)
            k = forms.get(form)
            if k is None:
                k = forms[form] = index.setdefault(_primitive_form(form), len(index))
                if k == len(self.classes):
                    self.classes.append((vec, tag))
            self.entries.append((vec, tag, k))

    def expect(self, N: int, depth: int):
        """ValueError unless this is the stream of sector N at this depth."""
        if (self.N, self.depth) != (N, depth):
            raise ValueError(f"stream of N={self.N}, depth {self.depth} "
                             f"used for N={N}, depth {depth}")

    @cached_property
    def fus(self) -> list:
        """Sector N's fusion generators, (vec, tag) pairs, to the depth."""
        return list(iter_fus_generators(self.N, self.depth))

    def judged(self, verdict):
        """(tag, verdict) per entry, in stream order; `verdict` is called on
        a class's representative once, at the first entry of the class."""
        memo: dict = {}
        for _vec, tag, k in self.entries:
            if k not in memo:
                memo[k] = verdict(self.classes[k][0])
            yield tag, memo[k]

    def scale(self, i: int) -> RatFuncQ:
        """c with entry i = c * its class representative, checked symbol by
        symbol; ArithmeticError if the entry is no such multiple."""
        vec, _tag, k = self.entries[i]
        rep = self.classes[k][0]
        sym = next(iter(rep))
        c = vec[sym] / rep[sym]
        if vec.keys() != rep.keys() or any(c * x != vec[s] for s, x in rep.items()):
            raise ArithmeticError(f"entry {i} is not a multiple of its class")
        return c

    def certificates(self, kb: KernelBasis):
        """(tag, certificate) per entry, None for a non-member of kb.

        `kb.certificate` runs once per class, on the representative u, and
        returns cert(u) only after recomputing its sum.  An entry v = c*u
        gets c*cert(u): c is checked against every coefficient by `scale`,
        so that sum is c*u = v exactly.
        """
        for i, (tag, cert) in enumerate(self.judged(kb.certificate)):
            if cert is not None:
                c = self.scale(i)
                cert = {t: c * x for t, x in cert.items()}
            yield tag, cert


def prop8_check(N: int, kb: KernelBasis, stream: SymmetrizationStream) -> CheckReport:
    """Both root-variable symmetrization families of the stream land in the
    exchange kernel kb, judged once per scale class and counted per entry;
    a lone unsymmetrized term does not."""
    rep = CheckReport(f"normal-ordering membership N={N}")
    D = kb.max_degree
    stream.expect(N, D)

    # the A relations all come first
    tallies = {fam: tally(bad for _tag, bad in rels)
               for fam, rels in groupby(stream.judged(lambda u: not kb.member(u)),
                                        key=lambda r: r[0][0])}
    for fam, pair, signs in (("A", "equal_pair", "equal"), ("B", "mixed_pair", "mixed")):
        n, bad, seconds = tallies.get(fam, (0, 0, 0.0))
        record(rep, f"prop8.{pair}.N{N}",
               f"{signs}-sign root symmetrization lies in the exchange kernel",
               n, bad, f"{n} coefficients", seconds)

    # negative control: one unsymmetrized term alone is not in the kernel
    with timer() as t:
        found_nonmember = any(
            fbar_target_complete(eps_bar, expo, D)
            and fbar_target_complete(eps_bar, _swap_expo(expo, 1), D)
            and not kb.member(vec)
            for eps_bar in sign_strings(N)
            for expo, vec in fbar_series(eps_bar, D).map_coeffs(
                lambda p: lp_swap(p, 1, 2)).extract_all().items())
    record(rep, f"prop8.control.N{N}", "a lone swapped term is not in the kernel",
           1, not found_nonmember, "negative control", t.seconds)
    return rep
