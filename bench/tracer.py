"""In-process tracing of qlzero from outside the package.

`Tracer.install()` wraps the public functions and methods of every qlzero
module and rebinds each wrapper wherever the original was bound: in the
defining module, in every module that copied the name with
`from .x import name`, and on the class for methods.  Nothing under
`src/qlzero` is edited.

Two kinds of record are kept, both in memory until `report()`:

* per-function aggregates `[calls, total_s, child_s]`, for every wrapped
  function.  Self time is total minus the time of wrapped calls made from
  inside it, so summing self time over a module's functions gives the
  module's (layer's) self time without double counting.  Time spent in
  private helpers is charged to the nearest wrapped caller.
* spans with parent ids, only at coarse boundaries: one per suite
  (`cli.run_suite`), per kernel build or load, and per check.  A check
  span runs from the previous verdict of its suite (or the suite start) to
  the moment its `CheckResult` is added.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("scalars", "laurent", "tensor", "windows", "report", "locality",
           "linalg", "hecke", "affine", "level0", "series", "kernel",
           "fusion", "rewrite", "characters", "cli")

# Dunder methods that carry arithmetic work; other dunders (__eq__,
# __hash__, __init__, ...) are charged to their caller.
ARITH_DUNDERS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__",
                           "__mul__", "__rmul__", "__matmul__",
                           "__truediv__", "__neg__"})
# Private methods wrapped because a named metric needs them.
EXTRA_METHODS = frozenset({"rewrite.RewriteSystem.__init__"})


def _public(name: str) -> bool:
    return not name.startswith("_") or name in ARITH_DUNDERS


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}     # key -> [calls, total, child]
        self.outcomes: dict[str, float] = {}  # named outcome counters
        self.spans: list[dict] = []
        self._stack = [0.0]                   # child-time accumulators
        self._open: list[dict] = []           # open coarse spans
        self._suite_mark: list[float] = []    # last verdict time per suite
        self._installed: dict[str, object] = {}

    # -- wrappers -----------------------------------------------------------

    def _wrap_plain(self, fn, key, observe=None):
        st = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        perf = time.perf_counter

        # two copies, so that the hot path pays no per-call test for `observe`
        if observe is None:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    st[0] += 1
                    st[1] += dt
                    st[2] += stack.pop()
                    stack[-1] += dt
        else:
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    st[0] += 1
                    st[1] += dt
                    st[2] += stack.pop()
                    stack[-1] += dt
                observe(args, result)
                return result
        return functools.wraps(fn)(wrapper)

    def _wrap_generator(self, fn, key):
        """Generators are timed per resumption, so their work is charged to
        them rather than to whoever iterates them."""
        st = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            st[0] += 1
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = perf()
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf() - t0
                    st[1] += dt
                    st[2] += stack.pop()
                    stack[-1] += dt
                yield value
        return functools.wraps(fn)(wrapper)

    def _wrap_span(self, fn, kind, label):
        """Coarse boundary: record a span around the call (on top of the
        aggregate wrapper already applied to `fn`)."""
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "kind": kind,
                    "name": label(args),
                    "parent": self._open[-1]["id"] if self._open else None,
                    "start": perf(), "end": None}
            self.spans.append(span)
            self._open.append(span)
            if kind == "suite":
                self._suite_mark.append(span["start"])
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = perf()
                self._open.pop()
                if kind == "suite":
                    self._suite_mark.pop()
        return functools.wraps(fn)(wrapper)

    def _check_span(self, result):
        now = time.perf_counter()
        suite = next((s for s in reversed(self._open) if s["kind"] == "suite"),
                     None)
        start = self._suite_mark[-1] if self._suite_mark else now
        self.spans.append({"id": len(self.spans), "kind": "check",
                           "name": result.name, "status": result.status,
                           "parent": suite["id"] if suite else None,
                           "start": start, "end": now})
        if self._suite_mark:
            self._suite_mark[-1] = now

    # -- outcome observers --------------------------------------------------

    def _count(self, name, amount=1):
        self.outcomes[name] = self.outcomes.get(name, 0) + amount

    def _observers(self):
        def gcd(args, g):
            if g != (1,):
                self._count("scalars.qp_gcd.nontrivial")

        def lb_add(args, grew):
            if grew:
                self._count("linalg.add.rank_gain")

        def built(args, kb):
            self._count("kernel.generators", kb.n_generators)
            self._count("kernel.rank", sum(len(b.pivots) for b in kb.cells.values()))

        def loaded(args, kb):
            self._count("kernel.cache_bytes", len(args[0].encode()))

        return {"scalars.qp_gcd": gcd, "linalg.LinearBasis.add": lb_add,
                "kernel.kernel_build": built,
                "kernel.KernelBasis.load_text": loaded}

    # -- installation -------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"qlzero.{m}") for m in MODULES}
        observers = self._observers()
        replaced: dict[int, object] = {}   # id(original) -> wrapper

        def make(fn, key):
            if inspect.isgeneratorfunction(fn):
                return self._wrap_generator(fn, key)
            return self._wrap_plain(fn, key, observers.get(key))

        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._install_class(short, obj, make)
                elif callable(obj) and _public(name):
                    key = f"{short}.{name}"
                    replaced[id(obj)] = make(obj, key)
                    self._installed[key] = obj

        spans = {
            "cli.run_suite": ("suite", lambda a: suite_label(a[0], a[1])),
            "kernel.kernel_build": ("kernel_build",
                                    lambda a: f"kernel_build.N{a[0]}"),
        }
        for key, (kind, label) in spans.items():
            orig = self._installed[key]
            replaced[id(orig)] = self._wrap_span(replaced[id(orig)], kind, label)

        # rebind every copy of a wrapped function, in every module
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                w = replaced.get(id(obj))
                if w is not None:
                    setattr(mod, name, w)
        pkg = importlib.import_module("qlzero")
        for name, obj in list(vars(pkg).items()):
            w = replaced.get(id(obj))
            if w is not None:
                setattr(pkg, name, w)

    def _install_class(self, short, cls, make):
        for name, raw in list(vars(cls).items()):
            key = f"{short}.{cls.__name__}.{name}"
            if not (_public(name) or key in EXTRA_METHODS):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                w = make(fn, key)
                if key == "kernel.KernelBasis.load_text":
                    w = self._wrap_span(w, "kernel_load",
                                        lambda a: "kernel_load")
                setattr(cls, name, type(raw)(w))
            elif inspect.isfunction(raw):
                w = make(raw, key)
                if key == "report.CheckReport.add":
                    inner = w

                    def w(report, result, _inner=inner):
                        out = _inner(report, result)
                        self._check_span(result)
                        return out
                setattr(cls, name, w)
            else:
                continue
            self._installed[key] = raw

    # -- results ------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer (module)."""
        out: dict[str, float] = {}
        for key, (_calls, total, child) in self.stats.items():
            layer = key.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + total - child
        return out

    def report(self) -> dict:
        return {"stats": {k: {"calls": c, "total_s": t, "self_s": t - ch}
                          for k, (c, t, ch) in sorted(self.stats.items())},
                "outcomes": dict(sorted(self.outcomes.items())),
                "layer_self_s": dict(sorted(self.self_seconds().items())),
                "spans": self.spans}


def suite_label(name: str, cfg: dict) -> str:
    """`<suite>.N<n>` for suites configured with a slot count, else the
    suite name; the same label keys the `cli.suite_s.*` metrics."""
    return f"{name}.N{cfg['n']}" if "n" in cfg else name
