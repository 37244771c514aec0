"""Structured outcomes of verification suites.

Every check produces one CheckResult with a stable identifier, the name of
the relation it exercises, a pass/fail/skipped status and a residual, the
number of instances whose residual did not vanish.  One rule, in `record`,
decides the status: any nonzero residual fails, a check that compared
nothing is skipped, every other check passes.  `check` counts and times a
stream of residuals for it.  Reports serialize as JSON lines.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class CheckResult:
    name: str            # stable identifier, e.g. "hecke.braid.S.N3"
    relation: str        # which algebraic relation is being verified
    status: str          # pass | fail | skipped
    detail: str = ""
    residual: int = 0    # 0 for exact zero; else dimension/count of failures
    seconds: float = 0.0

    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "relation": self.relation,
            "status": self.status,
            "detail": self.detail,
            "residual": self.residual,
            "seconds": round(self.seconds, 4),
        }, sort_keys=True)


@dataclass
class CheckReport:
    title: str
    results: list = field(default_factory=list)

    def add(self, result: CheckResult):
        self.results.append(result)

    def extend(self, other: "CheckReport"):
        self.results.extend(other.results)

    @property
    def ok(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    @property
    def n_fail(self) -> int:
        return sum(1 for r in self.results if r.status == "fail")

    def to_jsonl(self) -> str:
        return "\n".join(r.to_json() for r in sorted(self.results, key=lambda r: r.name))

    def summary(self) -> str:
        n, skipped = len(self.results), sum(r.status == "skipped" for r in self.results)
        text = f"{self.title}: {n - self.n_fail - skipped}/{n} checks passed"
        return text + (f", {skipped} skipped" if skipped else "")

    def lines(self) -> list[str]:
        out = []
        for r in sorted(self.results, key=lambda r: r.name):
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[r.status]
            extra = f" [{r.detail}]" if r.detail else ""
            out.append(f"{mark} {r.name} ({r.relation}){extra}")
        return out


class timer:
    """Context manager measuring wall time for a CheckResult."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        return False


def record(report: CheckReport, name: str, relation: str, checked: int, bad: int,
           detail: str = "", seconds: float = 0.0):
    """The verdict of a check that compared `checked` instances, `bad` of
    them with a nonzero residual: fail if any was bad, skipped if nothing
    was compared, pass otherwise.  The residual is the bad count."""
    status = "fail" if bad else "pass" if checked else "skipped"
    report.add(CheckResult(name, relation, status, detail, int(bad), seconds))


def check(report: CheckReport, name: str, relation: str, residuals,
          detail: str = ""):
    """Judge a stream of residuals, one per instance, consumed under the
    check's timer.  A residual is any value that is true when its instance
    failed: the difference of the two sides, or `lhs != rhs` of canonical
    forms, which skips building the difference."""
    with timer() as t:
        checked = bad = 0
        for r in residuals:
            checked += 1
            if r:
                bad += 1
    record(report, name, relation, checked, bad, detail, t.seconds)
