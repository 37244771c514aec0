"""Structured outcomes of verification suites.

Every check produces one CheckResult with a stable identifier, the name of
the relation it exercises, a pass/fail/skipped status and either a zero
certificate ("residual 0 on an n-dimensional basis") or the dimension of
the offending space.  Reports serialize as JSON lines so long suites can
stream results.
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

    def skip(self, name: str, relation: str, detail: str):
        """Record a check that has nothing to observe at this size."""
        self.add(CheckResult(name, relation, "skipped", detail))

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
        n = len(self.results)
        return f"{self.title}: {n - self.n_fail}/{n} checks passed"

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


def check(report: CheckReport, name: str, relation: str, passed: bool,
          detail: str = "", residual: int = 0, seconds: float = 0.0):
    report.add(CheckResult(name, relation, "pass" if passed else "fail",
                           detail, 0 if passed else max(residual, 1), seconds))
