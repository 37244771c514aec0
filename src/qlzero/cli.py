"""Batch orchestration: suite selection, kernel caching, reports.

Commands:
    check   run verification suites, write a JSON-lines report
    kernel  build (and cache) relation-window bases
    chars   print the graded character table against the oracle
    dump    pretty-print an operator's action on a window

Exit codes: 0 all checks pass, 1 at least one check failed, 2 invalid
configuration, 3 internal invariant violation.  The cache directory can
also be set through the QLZERO_CACHE environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .affine import affine_hecke_suite, lemma_suite
from .characters import character_check, graded_character
from .fusion import e0_forms_check, rhof_check
from .hecke import G_poly, S_apply, hecke_suite
from .kernel import (KernelBasis, kernel_build, prop8_check, prop9_check,
                     sector_caps)
from .laurent import LaurentPoly
from .level0 import (chevalley_check, e0_apply, evaluation_module_suite,
                     f0_apply, rhosg_check, t0_apply)
from .locality import LEDGER
from .report import CheckReport, CheckResult
from .rewrite import rewriter_completeness_check, rewriter_soundness_check
from .scalars import qpow
from .affine import Y_poly, Z_apply
from .tensor import TensorPoly, sign_strings
from .windows import Window, cone_exponents

SUITES = ("hecke", "affine-hecke", "lemmas", "rhosg", "chevalley",
          "prop8", "prop9", "rhof", "characters", "evalmod", "rewriter",
          "e0forms")

P_CHOICES = {"q3": [qpow(3)], "q4": [qpow(4)], "q5": [qpow(5)],
             "generic-sample": [qpow(3), qpow(5)]}


class ConfigError(Exception):
    pass


def parse_window(text: str, arity: int) -> Window:
    try:
        lo_s, hi_s = text.split("..")
        return Window(arity, int(lo_s), int(hi_s))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad window {text!r}: {exc}") from None


def cache_dir(args) -> Path | None:
    d = getattr(args, "cache", None) or os.environ.get("QLZERO_CACHE")
    if d is None:
        return None
    path = Path(d)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cached_kernel(N: int, depth: int, families: tuple, cache: Path | None) -> KernelBasis:
    if cache is None:
        return kernel_build(N, Window(N, -depth), families=families)
    key = f"N{N}-D{depth}-" + "".join(f[0] for f in sorted(families))
    path = cache / f"kernel-{key}.txt"
    if path.exists():
        # a file of another format, or for another window, is rebuilt
        try:
            kb = KernelBasis.load_text(path.read_text())
        except ValueError:
            kb = None
        if (kb is not None and kb.caps == sector_caps(N, depth, "FUS" in families)
                and sorted(kb.families) == sorted(families)):
            return kb
    kb = kernel_build(N, Window(N, -depth), families=families)
    path.write_text(kb.save_text())
    return kb


def run_suite(name: str, cfg: dict, cache: Path | None) -> CheckReport:
    n = int(cfg.get("n", 2))
    window = parse_window(cfg.get("window", "-3..0"), n)
    p_name = cfg.get("p", "q4")
    if p_name not in P_CHOICES:
        raise ConfigError(f"unknown p selection {p_name!r}")
    ps = P_CHOICES[p_name]

    if name == "hecke":
        return hecke_suite(n, window)
    if name == "affine-hecke":
        rep = CheckReport(f"affine hecke N={n}")
        for p in ps:
            rep.extend(affine_hecke_suite(n, p, window))
        return rep
    if name == "lemmas":
        return lemma_suite()
    if name == "rhosg":
        rep = CheckReport(f"exchange identity N={n}")
        for p in ps:
            rep.extend(rhosg_check(n, p, window))
        return rep
    if name == "chevalley":
        kb = cached_kernel(n, window.depth, ("HEC", "HWT"), cache)
        return chevalley_check(n, window, kb, sample=cfg.get("sample"))
    if name == "prop8":
        return prop8_check(n, window)
    if name == "prop9":
        return prop9_check(n, window)
    if name == "rhof":
        if p_name != "q4":
            raise ConfigError("fusion requires p=q^4")
        kb = cached_kernel(n, window.depth, ("HEC", "FUS", "HWT"), cache)
        rep = rhof_check(n, window, kb=kb)
        if cfg.get("control", True) and n == 2:
            rep.extend(rhof_check(2, window, p=qpow(3), enforce_fusion_scale=False,
                                  expect_member=False))
        return rep
    if name == "characters":
        return character_check(int(cfg.get("dmax", 6)), int(cfg.get("nmax", 12)),
                               verify_sectors=int(cfg.get("verify_sectors", 3)),
                               verify_degree=int(cfg.get("verify_degree", 4)))
    if name == "evalmod":
        return evaluation_module_suite(n)
    if name == "rewriter":
        rep = rewriter_soundness_check(n, window)
        rep.extend(rewriter_completeness_check(n, window))
        return rep
    if name == "e0forms":
        return e0_forms_check(n, window)
    raise ConfigError(f"unknown suite {name!r}")


def cmd_check(args) -> int:
    if args.config:
        cfg_all = json.loads(Path(args.config).read_text())
        jobs = cfg_all.get("suites", [])
        out = cfg_all.get("out", args.out)
    else:
        if not args.suite:
            raise ConfigError("no suites selected (use --suite or --config)")
        jobs = [{"suite": s, "n": args.n, "window": args.window, "p": args.p}
                for s in args.suite]
        out = args.out
    for job in jobs:
        if job.get("suite") not in SUITES:
            raise ConfigError(f"unknown suite {job.get('suite')!r}")
        if job.get("suite") == "rhof" and job.get("p", "q4") != "q4":
            raise ConfigError("fusion requires p=q^4")
    cache = cache_dir(args)
    full = CheckReport("qlzero")
    for job in jobs:
        rep = run_suite(job["suite"], job, cache)
        full.extend(rep)
    full.add(CheckResult("locality.margins",
                         "observed mode shifts within declared margins",
                         "pass" if LEDGER.ok else "fail", LEDGER.summary()))
    text = full.to_jsonl() + "\n"
    if out:
        Path(out).write_text(text)
    for line in full.lines():
        print(line)
    print(full.summary())
    return 0 if full.ok else 1


def cmd_kernel(args) -> int:
    cache = cache_dir(args)
    families = tuple(args.families.split(","))
    kb = cached_kernel(args.n, -int(args.window.split("..")[0]), families, cache)
    print(f"sectors {kb.sectors} degree {kb.max_degree} families {kb.families}")
    print(f"generators {kb.n_generators} rank {kb.rank()} "
          f"ambient {kb.ambient_dimension()}")
    if args.out:
        Path(args.out).write_text(kb.save_text())
    return 0


def cmd_chars(args) -> int:
    res = graded_character(args.dmax, args.nmax)
    ws = sorted({w for _, w in set(res["table"]) | set(res["oracle"])})
    lines = ["deg  " + " ".join(f"w={w:+d}".rjust(6) for w in ws)]
    for d in range(args.dmax + 1):
        row = " ".join(str(res["table"].get((d, w), 0)).rjust(6) for w in ws)
        lines.append(f"d={d}: {row}")
    lines.append(f"oracle agreement: {res['agree']}   "
                 f"sector truncation: {res['truncated']}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0 if res["agree"] and not res["truncated"] else 1


def cmd_dump(args) -> int:
    n = args.n
    window = parse_window(args.window, n)
    name = args.op
    p = P_CHOICES.get(args.p, [qpow(4)])[0]

    def tensor_basis():
        out = []
        for m in cone_exponents(n, window.depth):
            for eps in sign_strings(n):
                out.append(TensorPoly.monomial(eps, m))
        return out

    print(f"# action of {name} on the window {window.lo}..{window.hi}, N={n}")
    if name.startswith("S"):
        j = int(name[1:] or 1)
        for x in tensor_basis():
            print(f"{x!r}  ->  {S_apply(x, j)!r}")
    elif name.startswith("G"):
        j = int(name[1:2]); k = int(name[2:3])
        for m in window.exponents():
            f = LaurentPoly.monomial(n, m)
            print(f"{f!r}  ->  {G_poly(f, j, k)!r}")
    elif name.startswith("Y"):
        j = int(name[1:])
        for m in window.exponents():
            f = LaurentPoly.monomial(n, m)
            print(f"{f!r}  ->  {Y_poly(f, j, p)!r}")
    elif name == "Z":
        for m in window.exponents():
            f = LaurentPoly.monomial(n, m)
            print(f"{f!r}  ->  {Z_apply(f, p)!r}")
    elif name in ("e0", "f0", "t0"):
        fn = {"e0": e0_apply, "f0": f0_apply, "t0": lambda x, p=None: t0_apply(x)}[name]
        for x in tensor_basis():
            y = fn(x, p) if name != "t0" else t0_apply(x)
            print(f"{x!r}  ->  {y!r}")
    else:
        raise ConfigError(f"unknown operator {name!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qlzero",
                                 description="exact checks for the level-0 "
                                             "action on spinon windows")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run verification suites")
    c.add_argument("--suite", action="append", choices=SUITES)
    c.add_argument("--n", type=int, default=2)
    c.add_argument("--window", default="-3..0", help="LO..HI exponent bounds")
    c.add_argument("--p", default="q4", choices=sorted(P_CHOICES))
    c.add_argument("--config", help="JSON file mirroring the flags")
    c.add_argument("--cache", help="kernel cache directory")
    c.add_argument("--out", help="write the JSON-lines report here")
    c.set_defaults(fn=cmd_check)

    k = sub.add_parser("kernel", help="build or cache a relation window")
    k.add_argument("--n", type=int, required=True)
    k.add_argument("--window", default="-3..0")
    k.add_argument("--families", default="HEC,FUS,HWT")
    k.add_argument("--cache")
    k.add_argument("--out")
    k.set_defaults(fn=cmd_kernel)

    ch = sub.add_parser("chars", help="graded character table vs oracle")
    ch.add_argument("--dmax", type=int, default=6)
    ch.add_argument("--nmax", type=int, default=12)
    ch.add_argument("--out")
    ch.set_defaults(fn=cmd_chars)

    d = sub.add_parser("dump", help="print an operator's action on a window")
    d.add_argument("--op", required=True,
                   help="S<j>, G<j><k>, Y<j>, Z, e0, f0, t0")
    d.add_argument("--n", type=int, default=2)
    d.add_argument("--window", default="-2..0")
    d.add_argument("--p", default="q4")
    d.set_defaults(fn=cmd_dump)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError, RuntimeError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
