"""Uniform pass/fail reporting for verification suites.

Every identity check is a ``CaseResult``; ``check`` decides one equality of
two series, and ``first_failure`` decides a case made of several.

Reports give their cases sorted by id, as a JSON object or as CSV rows, and
embed no timing or host information.  ``cli._emit`` writes a report itself,
as the bytes of ``json.dumps(obj, indent=2, sort_keys=True)`` of its object
``{"anchor", "cases", "ok", "params", "suite"}``: the cases go out as one
``{"detail", "id", "status"}`` template filled from a row per case, with no
dict built per case.  Byte-identical output across runs is a hard guarantee;
suites run serially, so the ``--jobs`` that ``verify`` and ``all`` accept
changes no byte.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .qcore import QSeries, compare


class CaseResult(NamedTuple):
    case_id: str
    ok: bool
    detail: str = ""

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"


class SuiteReport(NamedTuple):
    suite: str
    anchor: str                 # plain-language statement of the identity checked
    params: dict
    cases: tuple[CaseResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def sorted_cases(self) -> list[CaseResult]:
        return sorted(self.cases, key=lambda c: c.case_id)

    def csv_rows(self) -> Iterator[tuple[str, str, str]]:
        """(id, status, detail) per case in id order, the detail wrapped in
        double quotes with any inner one turned into a single quote."""
        for c in self.sorted_cases():
            yield c.case_id, c.status, '"' + c.detail.replace('"', "'") + '"'


def check(case_id: str, lhs: QSeries, rhs: QSeries) -> CaseResult:
    """The case ``lhs = rhs``, decided by ``compare``: "exact" for equal
    untruncated series, else the joint cutoff agreed below or the first
    mismatching exponent and both coefficients there."""
    cmp = compare(lhs, rhs)
    return CaseResult(case_id, cmp.ok, cmp.detail())


def first_failure(case_id: str, pairs: Iterable[tuple[str, QSeries, QSeries]],
                  passed: str = "exact") -> CaseResult:
    """One case over several (where, lhs, rhs) equalities: the first that
    fails, its detail prefixed by ``where``, or a pass reading ``passed``.
    ``pairs`` is consumed lazily, so nothing past a failure is computed."""
    for where, lhs, rhs in pairs:
        res = check(case_id, lhs, rhs)
        if not res.ok:
            return CaseResult(case_id, False, f"{where}: {res.detail}")
    return CaseResult(case_id, True, passed)

