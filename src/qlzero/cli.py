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
import re
import sys
from pathlib import Path

from .affine import affine_hecke_suite, lemma_suite
from .characters import character_check, graded_character
from .fusion import e0_forms_check, rhof_check
from .hecke import G_poly, S_apply, hecke_suite
from .kernel import (FAMILIES, KernelBasis, kernel_build, prop8_check,
                     prop9_check, sector_caps)
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

# the only suites that run at a choice of p; the others run at q^4
SCALE_SUITES = {"affine-hecke", "rhosg"}
# suites that act on slot pairs, so need at least two slots
PAIR_SUITES = {"hecke", "rhosg", "prop8", "prop9", "rhof", "rewriter"}
# suites judged on a relation window -D..0; the others take a box window
DEPTH_SUITES = {"chevalley", "prop8", "prop9", "rhof", "rewriter", "e0forms"}
EXCHANGE = ("HEC", "HWT")
FULL = ("HEC", "FUS", "HWT")

JOB_KEYS = {"suite", "n", "window", "p"}
CONFIG_KEYS = {"suites", "out"}

# dump --op: S<j>, G<j><k>, Y<j> (slots 1..9), Z, e0, f0 or t0
DUMP_OP = re.compile(r"S([1-9])?|G([1-9])([1-9])|Y([1-9])|Z|e0|f0|t0")


class ConfigError(Exception):
    pass


def parse_window(text: str, arity: int) -> Window:
    try:
        lo_s, hi_s = text.split("..")
        return Window(arity, int(lo_s), int(hi_s))
    except (ValueError, TypeError, AttributeError) as exc:
        raise ConfigError(f"bad window {text!r}: {exc}") from None


def parse_depth(text: str) -> int:
    """The depth D of a relation window -D..0."""
    window = parse_window(text, 1)
    if window.hi != 0:
        raise ConfigError(f"relation windows end at mode 0, got {text!r}")
    return window.depth


def cache_dir(args) -> Path | None:
    d = getattr(args, "cache", None) or os.environ.get("QLZERO_CACHE")
    if d is None:
        return None
    path = Path(d)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cached_kernel(N: int, depth: int, families: tuple, cache: Path | None) -> KernelBasis:
    if cache is None:
        return kernel_build(N, depth, families)
    key = f"N{N}-D{depth}-" + "-".join(sorted(families))
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
    kb = kernel_build(N, depth, families)
    path.write_text(kb.save_text())
    return kb


def parse_job(name: str, cfg: dict) -> tuple:
    """(n, window, ps) of a job; the window is the depth for DEPTH_SUITES
    and a box Window for the others."""
    n = cfg.get("n", 2)
    if not isinstance(n, int) or isinstance(n, bool):
        raise ConfigError(f"a slot count is an integer, got n={n!r}")
    need = 2 if name in PAIR_SUITES else 1
    if n < need:
        raise ConfigError(f"suite {name!r} needs at least {need} slots, got n={n}")
    text = cfg.get("window", "-3..0")
    window = parse_depth(text) if name in DEPTH_SUITES else parse_window(text, n)
    p_name = cfg.get("p", "q4")
    if not isinstance(p_name, str) or p_name not in P_CHOICES:
        raise ConfigError(f"unknown p selection {p_name!r}")
    if p_name != "q4" and name not in SCALE_SUITES:
        raise ConfigError(f"suite {name!r} runs at p=q^4 only, got p={p_name!r}")
    return n, window, P_CHOICES[p_name]


def run_suite(name: str, cfg: dict, cache: Path | None) -> CheckReport:
    """Run one job; the relation-window suites get their windows, at the
    job's depth, from `cached_kernel`."""
    n, window, ps = parse_job(name, cfg)

    def kernel(families):
        return cached_kernel(n, window, families, cache)

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
        return chevalley_check(n, kernel(EXCHANGE))
    if name == "prop8":
        return prop8_check(n, kernel(EXCHANGE))
    if name == "prop9":
        return prop9_check(n, window)
    if name == "rhof":
        kb = kernel(FULL)
        rep = rhof_check(n, kb)
        if n == 2:
            rep.extend(rhof_check(2, kb, qpow(3)))
        return rep
    if name == "characters":
        return character_check()
    if name == "evalmod":
        return evaluation_module_suite(n)
    if name == "rewriter":
        kb_full = kernel(FULL)
        rep = rewriter_soundness_check(n, kernel(EXCHANGE), kb_full)
        rep.extend(rewriter_completeness_check(n, kb_full))
        return rep
    if name == "e0forms":
        return e0_forms_check(n, kernel(EXCHANGE))
    raise ConfigError(f"unknown suite {name!r}")


def read_config(path: str) -> dict:
    """The JSON config file: {"suites": [job, ...], "out": FILE}."""
    try:
        cfg = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
    if (not isinstance(cfg, dict) or set(cfg) - CONFIG_KEYS
            or not isinstance(cfg.get("suites", []), list)):
        raise ConfigError(f"a config is an object with the keys {sorted(CONFIG_KEYS)}"
                          " and a list of suite jobs")
    return cfg


def cmd_check(args) -> int:
    if args.config:
        cfg_all = read_config(args.config)
        jobs = cfg_all.get("suites", [])
        out = cfg_all.get("out", args.out)
    else:
        if not args.suite:
            raise ConfigError("no suites selected (use --suite or --config)")
        jobs = [{"suite": s, "n": args.n, "window": args.window, "p": args.p}
                for s in args.suite]
        out = args.out
    for job in jobs:
        if not isinstance(job, dict) or set(job) - JOB_KEYS:
            raise ConfigError(f"a job is an object with the keys {sorted(JOB_KEYS)}"
                              f", got {job!r}")
        if job.get("suite") not in SUITES:
            raise ConfigError(f"unknown suite {job.get('suite')!r}")
        parse_job(job["suite"], job)
    cache = cache_dir(args)
    full = CheckReport("qlzero")
    LEDGER.clear()
    for job in jobs:
        rep = run_suite(job["suite"], job, cache)
        full.extend(rep)
    # by hand, not by `record`: with nothing observed it passes, as `operators` expects
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
    families = tuple(args.families.split(","))
    if not set(families) <= set(FAMILIES) or len(set(families)) < len(families):
        raise ConfigError(f"--families takes distinct names from {','.join(FAMILIES)}, "
                          f"got {args.families!r}")
    if args.n < 1:
        raise ConfigError(f"a kernel needs at least one slot, got n={args.n}")
    kb = cached_kernel(args.n, parse_depth(args.window), families, cache_dir(args))
    print(f"sectors {kb.sectors} degree {kb.max_degree} families {kb.families}")
    print(f"generators {kb.n_generators} rank {kb.rank()} "
          f"ambient {kb.ambient_dimension()}")
    if args.out:
        Path(args.out).write_text(kb.save_text())
    return 0


def cmd_chars(args) -> int:
    if args.dmax < 0:
        raise ConfigError(f"--dmax is a degree, at least 0, got {args.dmax}")
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
    if len(P_CHOICES[args.p]) != 1:
        raise ConfigError(f"dump acts at one p, got --p {args.p}")
    p = P_CHOICES[args.p][0]
    match = DUMP_OP.fullmatch(name)
    if match is None:
        raise ConfigError(f"unknown operator {name!r} (S<j>, G<j><k>, Y<j>, Z, e0, f0, t0)")
    s_j, g_j, g_k, y_j = match.groups()
    slots = ((int(s_j or 1), int(s_j or 1) + 1) if name[0] == "S"
             else tuple(int(i) for i in (g_j, g_k, y_j) if i))
    if max(slots, default=0) > n or len(set(slots)) < len(slots):
        raise ConfigError(f"operator {name!r} needs distinct slots within 1..{n}")
    ops = {"S": lambda x: S_apply(x, slots[0]),
           "G": lambda f: G_poly(f, *slots),
           "Y": lambda f: Y_poly(f, slots[0], p),
           "Z": lambda f: Z_apply(f, p),
           "e0": lambda x: e0_apply(x, p),
           "f0": lambda x: f0_apply(x, p),
           "t0": t0_apply}
    fn = ops[name if name in ops else name[0]]
    if name[0] in "GYZ":     # operators on bare polynomials
        inputs = [LaurentPoly.monomial(n, m) for m in window.exponents()]
    else:                    # operators on relation windows -D..0
        inputs = [TensorPoly.monomial(eps, m)
                  for m in cone_exponents(n, parse_depth(args.window))
                  for eps in sign_strings(n)]
    print(f"# action of {name} on the window {window.lo}..{window.hi}, N={n}")
    for x in inputs:
        print(f"{x!r}  ->  {fn(x)!r}")
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
    d.add_argument("--p", default="q4", choices=sorted(P_CHOICES))
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
