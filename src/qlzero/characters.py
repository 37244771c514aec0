"""Graded dimension counting for the quotient model, against an
independent character oracle.

Grading conventions: a sector-N symbol at modes m and weight w sits at

    energy = -sum(m) - sum(offsets) - floor(N/2) + #minus,

and fusion preserves (energy, weight), so the total space is graded by
these two integers.  In this grading the two level-1 modules contribute

    even weights w = 2n   : p(e + n - n^2)     (vacuum module)
    odd weights  w = 2n+1 : p(e - n^2)         (charged module)

with p the partition function; these columns are the lattice-plus-boson
character with the spinon normalization shift per weight.

Sector by sector, the engine's quotient counts follow the two-partition
fermionic form

    A_N(e, w) = #{(P+, P-) : parts(P+) <= N+, parts(P-) <= N-,
                  |P+| + |P-| = e - E0},
    E0 = N+ N- + floor((w-1)^2 / 4),     N+- = (N +- w)/2.

At desk scale (N <= 3, plus N = 4 spot cells) this is verified exactly
against the pure-sector quotient ranks: cone cells modulo the exchange
family together with the specialization coefficients (the top layer of
the fusion family in the sector filtration).  The full table then sums
the verified form over sectors, with truncation detection.
"""

from __future__ import annotations

from functools import lru_cache

from .kernel import (KernelBasis, iter_hec_generators, sector_caps, sector_shift,
                     specialize_adjacent)
from .report import CheckReport, check, timer
from .tensor import TensorPoly, sign_strings


@lru_cache(maxsize=None)
def partitions_max_parts(n: int, k: int) -> int:
    """Number of partitions of n into at most k parts."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    if k <= 0:
        return 0
    # either no part equal used beyond k-1 parts, or subtract 1 from each of k parts
    return partitions_max_parts(n, k - 1) + partitions_max_parts(n - k, k)


def partitions(n: int) -> int:
    return partitions_max_parts(n, n) if n >= 0 else 0


def sector_count(N: int, e: int, w: int) -> int:
    """A_N(e, w): two-partition count at the fermionic base energy."""
    if (N - w) % 2 or abs(w) > N:
        return 0
    np_, nm = (N + w) // 2, (N - w) // 2
    base = np_ * nm + ((w - 1) ** 2) // 4
    rest = e - base
    if rest < 0:
        return 0
    return sum(partitions_max_parts(a, np_) * partitions_max_parts(rest - a, nm)
               for a in range(rest + 1))


def oracle_dimension(e: int, w: int) -> int:
    """Level-1 character oracle in the internal grading."""
    if w % 2 == 0:
        n = w // 2
        return partitions(e + n - n * n)
    n = (w - 1) // 2
    return partitions(e - n * n)


def display_degree(e: int, w: int) -> int:
    """Reported degree: even-weight columns shift by w/2 so the vacuum
    module carries its plain homogeneous grading (weights at degree d come
    in symmetric strings), while odd columns keep the spinon normalization
    that puts exactly one highest weight vector at degree zero."""
    return e + (w // 2 if w % 2 == 0 else 0)


def display_oracle(d: int, w: int) -> int:
    """Oracle in the reported grading: p(d - (w/2)^2) for even weights,
    p(d - ((w-1)/2)^2) for odd ones."""
    if d < 0:
        return 0
    n = w // 2 if w % 2 == 0 else (w - 1) // 2
    return partitions(d - n * n)


def iter_spec_coefficients(n: int, max_degree: int):
    """Coefficients of the specialized window series: the sector-n layer of
    the fusion family in the sector filtration."""
    if n < 2:
        return
    for j in range(1, n):
        for eps in sign_strings(n):
            lhs = specialize_adjacent(TensorPoly.window(eps, max_degree), j)
            for expo, vec in lhs.extract_all().items():
                if vec and sum(expo) <= max_degree:
                    yield vec, f"SPEC.n{n}.j{j}.{expo}"


def sector_quotient_counts(N: int, max_degree: int) -> dict:
    """Pure-sector quotient dimensions: cone cells modulo the exchange
    family and the specialization coefficients, keyed by (energy, weight)."""
    span = KernelBasis(sector_caps(N, max_degree, fusion=False), certificates=False)
    ranks = span.extend(iter_hec_generators, iter_spec_coefficients).ranks()
    out = {}
    for w in range(-N, N + 1, 2):
        for d in range(max_degree + 1):
            grade = (d + sector_shift(N, w), w)
            out[grade] = len(span.cell_columns(grade)) - ranks.get(grade, 0)
    return out


def sector_model_check(N: int, max_degree: int) -> CheckReport:
    """The fermionic sector count against exact pure-sector ranks."""
    rep = CheckReport(f"sector count model N={N}")
    with timer() as t:
        got = sector_quotient_counts(N, max_degree)
        bad = []
        for (e, w), cnt in sorted(got.items()):
            if cnt != sector_count(N, e, w):
                bad.append((e, w, cnt, sector_count(N, e, w)))
    check(rep, f"characters.sector.N{N}",
          "two-partition count equals pure-sector quotient rank",
          not bad, f"{len(got)} cells" + (f"; first mismatch {bad[0]}" if bad else ""),
          len(bad), t.seconds)
    return rep


def graded_character(d_max: int, n_max: int) -> dict:
    """Quotient dimensions per (reported degree, weight) over all sectors.

    Returns {"table": {(d, w): dim}, "oracle": likewise, "agree": bool,
    "truncated": bool} - `truncated` flags sectors beyond n_max still
    contributing inside the requested range.
    """
    w_max = 2 * d_max + 3
    e_max = d_max + w_max  # internal energies that can land at degree <= d_max

    def assemble(n_hi):
        table: dict[tuple, int] = {}
        for e in range(e_max + 1):
            for w in range(-w_max, w_max + 1):
                d = display_degree(e, w)
                if not (0 <= d <= d_max):
                    continue
                tot = sum(sector_count(N, e, w) for N in range(n_hi + 1))
                if tot:
                    table[(d, w)] = table.get((d, w), 0) + tot
        return table

    table = assemble(n_max)
    oracle = {}
    for d in range(d_max + 1):
        for w in range(-w_max, w_max + 1):
            c = display_oracle(d, w)
            if c:
                oracle[(d, w)] = c
    truncated = assemble(n_max + 2) != table
    return {
        "table": table,
        "oracle": oracle,
        "agree": table == oracle,
        "truncated": truncated,
    }


def character_check(d_max: int, n_max: int, verify_sectors: int = 3,
                    verify_degree: int = 4) -> CheckReport:
    """Acceptance-level character comparison with engine-side verification
    of the per-sector counts at desk scale."""
    rep = CheckReport(f"characters d<={d_max}")
    for N in range(1, verify_sectors + 1):
        rep.extend(sector_model_check(N, verify_degree))
    with timer() as t:
        res = graded_character(d_max, n_max)
        pinned = (res["table"].get((0, 0), 0) + res["table"].get((0, 1), 0) == 2
                  and sum(res["table"].get((1, w), 0) for w in (-2, 0, 2)) == 3)
    check(rep, f"characters.table.d{d_max}",
          "quotient graded dimensions equal the level-1 oracle",
          res["agree"] and not res["truncated"] and pinned,
          f"{len(res['table'])} occupied cells, sectors <= {n_max}"
          + ("; TRUNCATED" if res["truncated"] else ""),
          0 if res["agree"] else 1, t.seconds)
    return rep
