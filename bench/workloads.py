"""The benchmark's workloads and their hand-written verdict tables.

Each workload is one `qlzero check` configuration (a list of suite jobs)
plus the verdicts the paper's statements predict for it.  Every check is
expected to pass, with one exception: `chevalley.serre.N3` is reported as
`skipped` by design (the Serre relation is only checked for N=2).  The
negative controls are checks like any other: `rhof.*.control.N2` asserts
that fusion compatibility *fails* at p = q^3 and `prop8.control.N2` that a
lone swapped term is *not* in the ideal; each passes when the control
behaves as the paper says.

See NOTES.md for why each workload was chosen.
"""

from __future__ import annotations

P2 = 2  # suites run at p = q^3 and q^5 ("generic-sample") repeat each check


def _rows(names, status="pass", times=1):
    return [(n, status) for n in names for _ in range(times)]


HECKE_N4 = _rows([f"hecke.{c}.N4" for c in (
    "braid.G", "braid.S", "commute.S-uq", "eigen.S", "exchange", "inverse.S",
    "locality.G", "quadratic.G", "quadratic.S", "r_at_1", "rs", "ybe")])
LEMMAS = _rows(["lemma.bcc.decomposition", "lemma.exchange.cbar",
                "lemma.exchange.step4", "lemma.transport.singlet",
                "lemma.transport.triplet"])
AFFINE_N3 = _rows([f"affine.{c}.N3" for c in (
    "commute", "cone", "crossing", "far", "inverse")], times=P2)
RHOSG_N3 = _rows([f"rhosg.{c}.N3" for c in (
    "e0.j1", "e0.j2", "f0.j1", "f0.j2", "far")], times=P2)
EVALMOD_N3 = _rows(["evalmod.chevalley.N3"])

RHOF_N3 = _rows(["rhof.e0.N3", "rhof.f0.N3"])
RHOF_N2 = _rows(["rhof.e0.N2", "rhof.f0.N2",
                 "rhof.e0.control.N2", "rhof.f0.control.N2"])
PROP9_N3 = _rows(["prop9.spans.N3"])
PROP8_N2 = _rows(["prop8.equal_pair.N2", "prop8.mixed_pair.N2",
                  "prop8.control.N2"])
REWRITER_N2 = _rows(["rewriter.complete.N2", "rewriter.idempotent.N2",
                     "rewriter.sound.ab.N2", "rewriter.sound.fus.N2"])
CHARACTERS = _rows(["characters.sector.N1", "characters.sector.N2",
                    "characters.sector.N3", "characters.table.d6"])

CHEVALLEY_N2 = _rows([f"chevalley.{c}.N2" for c in (
    "bracket", "diagonal", "mixed", "serre")])
CHEVALLEY_N3 = _rows([f"chevalley.{c}.N3" for c in (
    "bracket", "diagonal", "mixed")]) + [("chevalley.serre.N3", "skipped")]

# one per `qlzero check` call, whatever the suites
LOCALITY = _rows(["locality.margins"])


def _job(suite, expect, n=None, window=None, p=None):
    job = {"suite": suite}
    if n is not None:
        job["n"] = n
    if window is not None:
        job["window"] = window
    if p is not None:
        job["p"] = p
    return {"job": job, "expect": expect}


WORKLOADS = {
    # Operator layers only (S/G/Y/Z, small q-monomial coefficients); never
    # touches linalg, kernel or series.
    "operators": {
        "jobs": [
            _job("hecke", HECKE_N4, n=4, window="-3..0"),
            _job("lemmas", LEMMAS),
            _job("affine-hecke", AFFINE_N3, n=3, window="-4..0",
                 p="generic-sample"),
            _job("rhosg", RHOSG_N3, n=3, window="-3..0", p="generic-sample"),
            _job("evalmod", EVALMOD_N3, n=3),
        ],
        "kernels": [],
    },
    # Write path: cold kernel builds with certificates, fusion and
    # symmetrization series, rewriting system, characters.
    "ideal": {
        "jobs": [
            _job("rhof", RHOF_N3, n=3, window="-4..0"),
            _job("rhof", RHOF_N2, n=2, window="-4..0"),
            _job("prop9", PROP9_N3, n=3, window="-4..0"),
            _job("prop8", PROP8_N2, n=2, window="-4..0"),
            _job("rewriter", REWRITER_N2, n=2, window="-4..0"),
            _job("characters", CHARACTERS),
        ],
        "kernels": [],
    },
    # Read path: kernels loaded from a cache filled during set-up, then
    # membership/reduction and the element-face E0/F0.  rhof N3 runs at
    # -3..0 here: its -4..0 fusion kernel takes 8 s to build, which set-up
    # would pay three times per run.
    "quotient": {
        "jobs": [
            _job("chevalley", CHEVALLEY_N2, n=2, window="-4..0"),
            _job("chevalley", CHEVALLEY_N3, n=3, window="-4..0"),
            _job("rhof", RHOF_N3, n=3, window="-3..0"),
        ],
        # (n, window, families) for `qlzero kernel --cache`: exactly the
        # kernels the jobs above load
        "kernels": [(2, "-4..0", "HEC,HWT"), (3, "-4..0", "HEC,HWT"),
                    (3, "-3..0", "HEC,FUS,HWT")],
    },
}


def expected(workload: str) -> list[tuple[str, str]]:
    """The verdict table of a workload: (check name, status) rows, with
    repeats where a suite runs a check more than once."""
    rows = [r for j in WORKLOADS[workload]["jobs"] for r in j["expect"]]
    return sorted(rows + LOCALITY)
