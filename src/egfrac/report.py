"""Verification report shared by every sweep.

A report records what was swept, how many points were checked, which
points failed, and which failing points were expected going in (none by
default). A sweep passes exactly when its failures are the expected set,
so an expected failure that does not happen fails it too.
Reports are deterministic: failure and observation lists are sorted or in
swept order, so identical inputs produce byte-identical serializations
regardless of how many workers ran the sweep. ``tally`` builds the report
of a suite that yields one ``(point, holds)`` verdict per point.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence


class VerificationReport(NamedTuple):
    lemma_id: str
    range_descr: str
    points_checked: int
    failures: list[tuple]
    expected_exceptions: Sequence[tuple] = ()
    # verdicts recorded at exceptional or otherwise notable points
    observations: Sequence[dict] = ()

    @property
    def passed(self) -> bool:
        return set(self.failures) == set(self.expected_exceptions)

    def to_json_dict(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "range_descr": self.range_descr,
            "points_checked": self.points_checked,
            "failures": [list(f) for f in self.failures],
            "expected_exceptions": [list(e) for e in self.expected_exceptions],
            "observations": self.observations,
            "passed": self.passed,
        }


def tally(lemma_id: str, range_descr: str, verdicts: Iterable, observations=()) -> VerificationReport:
    """The report of ``(point, holds)`` verdicts, read once.

    Every pair is a checked point, and the points that do not hold are
    the failures, in input order; no failure is expected.
    """
    points = 0
    failures = []
    for points, (point, holds) in enumerate(verdicts, 1):
        if not holds:
            failures.append(point)
    return VerificationReport(lemma_id, range_descr, points, failures, observations=observations)
