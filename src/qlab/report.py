"""Uniform pass/fail reporting for verification suites.

Reports serialize deterministically: cases are sorted by id, JSON keys are
sorted, and no timing or host information is embedded, so byte-identical
output across runs and ``--jobs`` values is a hard guarantee.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    ok: bool
    detail: str = ""

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    anchor: str                 # plain-language statement of the identity checked
    params: dict
    cases: tuple[CaseResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def sorted_cases(self) -> list[CaseResult]:
        return sorted(self.cases, key=lambda c: c.case_id)

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "anchor": self.anchor,
            "params": self.params,
            "ok": self.ok,
            "cases": [
                {"id": c.case_id, "status": c.status, "detail": c.detail}
                for c in self.sorted_cases()
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["id,status,detail"]
        for c in self.sorted_cases():
            detail = c.detail.replace('"', "'")
            lines.append(f'{c.case_id},{c.status},"{detail}"')
        return "\n".join(lines) + "\n"


def make_report(suite: str, anchor: str, params: dict,
                cases: Iterable[CaseResult]) -> SuiteReport:
    return SuiteReport(suite, anchor, dict(params), tuple(cases))


def default_jobs() -> int:
    """Worker count asked for by ``QLAB_JOBS`` (1 if unset or invalid).

    Suites run serially, so the count changes no output and no speed.
    """
    env = os.environ.get("QLAB_JOBS", "")
    try:
        n = int(env)
    except ValueError:
        return 1
    return max(1, n)
