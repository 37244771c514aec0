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
"""

from __future__ import annotations

import json

from .hecke import G_poly, R_numerator_op, S_PAIR
from .laurent import LaurentPoly, lp_insert_var, lp_specialize, lp_swap
from .linalg import LinearBasis
from .report import CheckReport, check, timer
from .scalars import RatFuncQ, qpow, qq_int, RatFuncQ as _RF
from .tensor import MINUS, PLUS, TensorPoly, kappa, sign_strings
from .windows import Window, cone_cell

FAMILIES = ("HEC", "FUS", "HWT")


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
    for (eps, m), c in vec.items():
        out.accumulate(eps, LaurentPoly.monomial(len(m), m, c))
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


def hec_generator(eps: tuple, mu: tuple, j: int) -> dict:
    """Exchange-family generator at source eps, cone target mode mu, pair j."""
    N = len(eps)
    vec: dict = {}
    for (a, b), c in S_PAIR[(eps[j - 1], eps[j])]:
        t = list(eps)
        t[j - 1], t[j] = a, b
        sym = (tuple(t), mu)
        vec[sym] = vec.get(sym, qq_int(0)) + c
    for m, c in g_row_coeffs(N, mu, j).items():
        sym = (eps, m)
        vec[sym] = vec.get(sym, qq_int(0)) - c
    return {s: c for s, c in vec.items() if c}


def iter_hec_generators(N: int, max_degree: int):
    """All exchange generators with support in degrees <= max_degree, one
    per cone target mode, source string and pair.

    Targets with a positive mode add nothing: G keeps a pair's exponents
    inside their segment, so such a target has no cone column, and its slot
    part dies under the highest-weight cut.
    """
    strs = sign_strings(N)
    for d in range(max_degree + 1):
        for mu in cone_cell(N, -d):
            for eps in strs:
                for j in range(1, N):
                    vec = hec_generator(eps, mu, j)
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
    apply(series, arity) given, it acts on both windows first.
    """
    n = len(eps)

    def window(s, degree):
        w = TensorPoly.window(s, degree)
        return w if apply is None else apply(w, len(s))

    lhs = specialize_adjacent(window(eps, max_degree), j)
    if eps[j - 1] + eps[j]:
        return lhs
    red = eps[: j - 1] + eps[j + 1:]
    pref = fusion_prefactor(n, j, n - 1)
    rhs = window(red, max(max_degree - (n - 2), 0)).map_coeffs(
        lambda p: lp_insert_var(p, j) * pref, nvars=n - 1)
    return lhs - rhs.scale(fusion_weight(n, j, eps[j - 1]))


def iter_fus_generators(n: int, max_degree: int):
    """Fusion generators from sector n into sector n-2.

    For each source string and fusion pair j, the fusion relation is
    extracted coefficient by coefficient; every nonzero coefficient of
    total value degree <= max_degree is a generator (complete by
    homogeneity).
    """
    if n < 2:
        return
    for j in range(1, n):
        for eps in sign_strings(n):
            diff = fusion_relation(eps, j, max_degree)
            for expo, vec in diff.extract_all().items():
                if sum(expo) <= max_degree and vec:
                    yield vec, f"FUS.n{n}.j{j}.{_eps_str(eps)}.{expo}"


def _eps_str(eps: tuple) -> str:
    return "".join("+" if s > 0 else "-" for s in eps) or "0"


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

    The relation window carries exact certificates; the rewriting system
    and the rank comparisons use the same span with their own column order
    and without certificates.
    """

    def __init__(self, caps: dict, families: tuple = (), key=symbol_key,
                 certificates: bool = True):
        for f in families:
            if f not in FAMILIES:
                raise ValueError(f"unknown family {f!r}")
        self.caps = dict(caps)
        self.families = tuple(families)
        self.key = key
        self.certificates = certificates
        self.cells: dict[tuple, LinearBasis] = {}
        self.n_generators = 0
        self.provenance: dict[str, int] = {}

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
            basis = LinearBasis(key=self.key, certificates=self.certificates)
            self.cells[grade] = basis
        return basis.add(vec, tag)

    def extend(self, *families) -> "KernelBasis":
        """Feed generator families, callables (n, cap) -> (vec, tag) pairs,
        down the sector chain (sectors below 2 carry no relations)."""
        for n, cap in self.caps.items():
            if n < 2:
                continue
            for family in families:
                for vec, tag in family(n, cap):
                    self.add(vec, tag)
        return self

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

    def reduce(self, x, want_cert: bool = False):
        """Residual of a TensorPoly or symbol vector modulo the span, cell by
        cell (and the certificate: {generator tag: coefficient})."""
        vec = tensor_to_vec(x) if isinstance(x, TensorPoly) else x
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
        residual: dict = {}
        cert: dict = {}
        for grade, comp in by_cell.items():
            basis = self.cells.get(grade)
            if basis is None:
                residual.update(comp)
            elif want_cert:
                res, cc = basis.reduce(comp, want_cert=True)
                residual.update(res)
                cert.update(cc)
            else:
                residual.update(basis.reduce(comp))
        return (residual, cert) if want_cert else residual

    def member(self, x, want_cert: bool = False):
        """(is_member, residual[, certificate]): exact certificate on
        success, nonzero residual on failure."""
        if want_cert:
            res, cert = self.reduce(x, want_cert=True)
            return (not res, res, cert)
        res = self.reduce(x)
        return (not res, res)

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


def kernel_build(N: int, window: Window, families=("HEC", "FUS", "HWT")) -> KernelBasis:
    """Build the relation-window basis for the sector chain N, N-2, ...

    The highest-weight family is realized structurally (cone windows); it
    is listed in the manifest when requested.  Without FUS only the single
    sector N is used.
    """
    if window.hi > 0:
        raise ValueError("mode windows require hi <= 0")
    if window.arity != N:
        raise ValueError("window arity mismatch")
    kb = KernelBasis(sector_caps(N, window.depth, "FUS" in families), families)
    generators = {"HEC": iter_hec_generators, "FUS": iter_fus_generators}
    return kb.extend(*(gen for fam, gen in generators.items() if fam in families))


# -- statement-level checks --------------------------------------------------


def prop9_check(N: int, window: Window) -> CheckReport:
    """Spans of the cross-multiplied commutation family and of the exchange
    family agree, cell by cell, inside the window."""
    rep = CheckReport(f"commutation vs exchange spans N={N}")
    D = window.depth
    caps = sector_caps(N, D, fusion=False)
    comm, exch, union = (KernelBasis(caps, certificates=False) for _ in range(3))
    with timer() as t:
        for eps in sign_strings(N):
            for j in range(1, N):
                w = TensorPoly.window(eps, D)
                nv = w.nvars
                zj = LaurentPoly.var(nv, j)
                zj1 = LaurentPoly.var(nv, j + 1)
                swapped = w.map_coeffs(lambda p: lp_swap(p, j, j + 1))
                # (q z_{j+1} - q^{-1} z_j) K w - (S z_{j+1} - S^{-1} z_j) w
                fam_a = (swapped.mul_poly(zj1.scale_coeffs(qpow(1))
                                          - zj.scale_coeffs(qpow(-1)))
                         - R_numerator_op(w, j, j + 1, j, j + 1))
                # a target of exponent sum t draws on symbols of degree t-1,
                # so everything up to t = D+1 is complete in this window
                for expo, vec in fam_a.extract_all().items():
                    if vec and sum(expo) <= D + 1:
                        comm.add(vec, "A")
                        union.add(vec, "A")
        for vec, tag in iter_hec_generators(N, D):
            exch.add(vec, tag)
            union.add(vec, tag)
    ranks_a, ranks_b, ranks_u = comm.ranks(), exch.ranks(), union.ranks()
    ok = ranks_a == ranks_b == ranks_u
    ra, rb, ru = sum(ranks_a.values()), sum(ranks_b.values()), sum(ranks_u.values())
    check(rep, f"prop9.spans.N{N}",
          "commutation family spans the exchange family and conversely",
          ok, f"ranks: commutation {ra}, exchange {rb}, union {ru}",
          0 if ok else abs(ra - ru) + abs(rb - ru), t.seconds)
    return rep


def _fbar_shift(eps_bar: tuple) -> tuple:
    N = len(eps_bar)
    return tuple((1 + eps_bar[j]) // 2 - 2 * (N - 1 - j) for j in range(N))


def fbar_series(eps_bar: tuple, max_degree: int, n_max: int | None = None) -> TensorPoly:
    """Root-variable dressing of the sign-flipped window series.

    Symbols are those of the flipped string; values live in root variables
    (z = zeta^2), carrying the parity prefactor, the triangular monomial
    and the expanded geometric factors.  Coefficients are complete exactly
    at the targets accepted by fbar_target_complete for the same n_max.
    """
    N = len(eps_bar)
    if n_max is None:
        n_max = max_degree
    flip = tuple(-s for s in eps_bar)
    # root-variable values: exponent doubling plus the parity/monomial shift
    shift = _fbar_shift(eps_bar)
    out = TensorPoly.window(flip, max_degree).map_coeffs(lambda p: LaurentPoly(
        N, {tuple(2 * e[i] + shift[i] for i in range(N)): c for e, c in p.terms.items()}))
    # expanded factors 1/(1 - q^2 z_k/z_j) = sum_n q^{2n} zeta_k^{2n} zeta_j^{-2n}
    for j in range(1, N + 1):
        for k in range(j + 1, N + 1):
            geo = {}
            for n in range(n_max + 1):
                e = [0] * N
                e[j - 1] = -2 * n
                e[k - 1] = 2 * n
                geo[tuple(e)] = qpow(2 * n)
            out = out.mul_poly(LaurentPoly(N, geo))
    return out


def fbar_target_complete(eps_bar: tuple, expo: tuple, max_degree: int,
                         n_max: int | None = None, extra: int = 0) -> bool:
    """Whether the coefficient at this exponent is complete at truncation
    order n_max: the redistribution flow into every index suffix must be
    realizable within the expanded terms (with slack for a multiplier of
    degree `extra` applied after the dressing)."""
    if n_max is None:
        n_max = max_degree
    if not _fbar_target_ok(eps_bar, expo, max_degree, extra):
        return False
    shift = _fbar_shift(eps_bar)
    N = len(eps_bar)
    for t in range(1, N):
        flow2 = sum(expo[k] - shift[k] for k in range(t, N))
        if flow2 > 2 * n_max - 2 * extra:
            return False
    return True


def _swap_expo(expo: tuple, k: int) -> tuple:
    e = list(expo)
    e[k - 1], e[k] = e[k], e[k - 1]
    return tuple(e)


def iter_ab_relations(N: int, max_degree: int, n_max: int | None = None):
    """Coefficient relations of the two root-variable symmetrization
    families, restricted to targets whose every constituent (swapped or
    not) is complete at the truncation order."""
    if n_max is None:
        n_max = 2 * max_degree + 2 * N
    for eps_bar in sign_strings(N):
        for k in range(1, N):
            if eps_bar[k - 1] != eps_bar[k]:
                continue
            base = fbar_series(eps_bar, max_degree, n_max)
            diff = base.map_coeffs(lambda p: lp_swap(p, k, k + 1)) - base
            for expo, vec in diff.extract_all().items():
                if not vec:
                    continue
                if (fbar_target_complete(eps_bar, expo, max_degree, n_max)
                        and fbar_target_complete(eps_bar, _swap_expo(expo, k),
                                                 max_degree, n_max)):
                    yield vec, f"A.N{N}.k{k}.{_eps_str(eps_bar)}.{expo}"
    for outer in sign_strings(N - 2) if N >= 2 else []:
        for k in range(1, N):
            eps_pm = outer[: k - 1] + (PLUS, MINUS) + outer[k - 1:]
            eps_mp = outer[: k - 1] + (MINUS, PLUS) + outer[k - 1:]
            a = fbar_series(eps_pm, max_degree, n_max)
            b = fbar_series(eps_mp, max_degree, n_max)
            sa = a.map_coeffs(lambda p: lp_swap(p, k, k + 1))
            sb = b.map_coeffs(lambda p: lp_swap(p, k, k + 1))
            nv = a.nvars
            zk = LaurentPoly.var(nv, k)
            zk1 = LaurentPoly.var(nv, k + 1)
            mult_sw = zk1 + zk.scale_coeffs(qpow(1))
            mult_id = zk + zk1.scale_coeffs(qpow(1))
            comb = (sa + sb).mul_poly(mult_sw) - (a + b).mul_poly(mult_id)
            for expo, vec in comb.extract_all().items():
                if not vec:
                    continue
                swapped = _swap_expo(expo, k)
                if all(fbar_target_complete(eps, e2, max_degree, n_max, extra=1)
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


def prop8_check(N: int, window: Window) -> CheckReport:
    """Both root-variable symmetrization families land in the exchange
    kernel; a lone unsymmetrized term does not."""
    rep = CheckReport(f"normal-ordering membership N={N}")
    D = window.depth
    kb = kernel_build(N, Window(N, -D), families=("HEC", "HWT"))

    counts = {"A": 0, "B": 0}
    fails = {"A": 0, "B": 0}
    with timer() as t:
        for vec, tag in iter_ab_relations(N, D):
            fam = tag[0]
            counts[fam] += 1
            good, _res = kb.member(vec)
            if not good:
                fails[fam] += 1
    check(rep, f"prop8.equal_pair.N{N}",
          "equal-sign root symmetrization lies in the exchange kernel",
          fails["A"] == 0, f"{counts['A']} coefficients", fails["A"], t.seconds)
    check(rep, f"prop8.mixed_pair.N{N}",
          "mixed-sign root symmetrization lies in the exchange kernel",
          fails["B"] == 0, f"{counts['B']} coefficients", fails["B"], t.seconds)

    # negative control: one unsymmetrized term alone is not in the kernel
    with timer() as t:
        n_max = 2 * D + 2 * N
        found_nonmember = False
        for eps_bar in sign_strings(N):
            base = fbar_series(eps_bar, D, n_max)
            swapped = base.map_coeffs(lambda p: lp_swap(p, 1, 2))
            for expo, vec in swapped.extract_all().items():
                if (vec and fbar_target_complete(eps_bar, expo, D, n_max)
                        and fbar_target_complete(eps_bar, _swap_expo(expo, 1), D, n_max)):
                    good, _res = kb.member(vec)
                    if not good:
                        found_nonmember = True
                        break
            if found_nonmember:
                break
    check(rep, f"prop8.control.N{N}",
          "a lone swapped term is not in the kernel", found_nonmember,
          "negative control", 0 if found_nonmember else 1, t.seconds)
    return rep
