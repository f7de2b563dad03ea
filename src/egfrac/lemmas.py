"""Exact finite-range verification of the floor-inequality lemmas.

Each sweep walks a parameter box (q, u, s, v) where u runs over the
divisors of q + 2 (offset-2 family) or q + 3 (offset-3 family) with a
minimum quotient, and decides a strict floor inequality at every point
using only integer arithmetic: floors are Euclidean divisions after
clearing denominators, comparisons are cross-multiplications. No
verification path touches approximate arithmetic.

Exceptional points are first-class data: the offset-3 sweeps are expected
to fail exactly at (q, u) = (17, 2) and (61, 8), and the reports record
the observed verdicts there (which (s, v) fail, and whether the failure
is an exact tie, decided by ``_backend._offset3_tie``) so that a
regression that accidentally "fixes" them is caught. ``verify_lp12``
checks the offset-3 inequality at (q, u, v) = (61, 8, 1) for every
s >= 1: it holds except at s = 155, where both sides equal 7 exactly;
the s >= 156 tail is covered by the threshold argument checked
symbolically (both bounding linear forms have positive slope, so
endpoint checks at s = 156 cover the tail).

The brute-force sub-facts quoted inside the lemma proofs (which small
parameter triples survive an integrality constraint) are reproduced by
the ``*_survivors`` helpers; the offset-2 and offset-3 cases solve one
equation with offset c, scanned once by ``_offset_survivors``.

lp1, lp11 and lp50 are one inequality with offset c, written once in
``_backend._offset_point``, over boxes that differ only in c, the least
quotient (q + c)/u and the (s, v) values; ``_BOXES`` lists them, and one
scan serves all three. Each box point is exactly one ``_backend`` kernel
call, looked up from ``_backend`` when a q is scanned, so call counts
equal the points checked. For each q the admissible u come from divisor
pairs (d, total/d) with d <= isqrt(total), 37 remainders at q = 1500
instead of one per candidate u (up to 499), and the points are counted
per u as len(vs) * len(ss) rather than one by one.

Sweeps partition their q-range across workers when ``jobs > 1``; the
per-q results are added up as they arrive and the failures sorted, so
worker count never changes output content.
"""

from __future__ import annotations

from functools import partial
from math import isqrt

from . import _backend
from ._pool import ordered_map, worker_count
from .errors import DomainError
from .report import VerificationReport

OFFSET3_EXPECTED_EXCEPTIONS = [(17, 2), (61, 8)]


def _admissible_divisors(total: int, min_quotient: int) -> list[int]:
    """Divisors u >= 2 of total with total/u >= min_quotient, ascending.

    Found as pairs (d, total/d) with d <= isqrt(total): d is admissible
    when total/d >= min_quotient, and total/d when d >= min_quotient.
    """
    small = [d for d in range(2, isqrt(total) + 1) if total % d == 0]
    return [d for d in small if total // d >= min_quotient] + [
        total // d for d in reversed(small) if d >= min_quotient and d * d != total
    ]


# lemma -> (kernel, offset c, least quotient (q+c)/u, s values, v values);
# s values None means 1 <= s < u. The kernel is named, not held, and looked
# up when a q is scanned, so a kernel replaced on ``_backend`` is the one
# called.
_BOXES = {
    "lp1": ("lp1_point", 2, 3, None, (1, 2)),
    "lp11": ("lp11_point", 3, 4, None, (1, 2, 3)),
    "lp50": ("lp50_point", 3, 4, (1,), (3,)),
}


def _scan_q(lemma: str, q: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Points checked at q, and the failing (q, u, s, v).

    s is the inner loop, over the longer range: one loop setup per v
    rather than per s makes the scan as fast as calls written out per v.
    """
    name, c, least, s_values, vs = _BOXES[lemma]
    point = getattr(_backend, name)
    points = 0
    failures = []
    for u in _admissible_divisors(q + c, least):
        ss = range(1, u) if s_values is None else s_values
        points += len(vs) * len(ss)
        for v in vs:
            for s in ss:
                if not point(q, u, s, v):
                    failures.append((q, u, s, v))
    return points, failures


def _sweep(lemma: str, q_max: int, jobs: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Points checked and the sorted failing points of the box up to q_max.

    The per-q results are added up as they arrive, so no per-q list is
    kept.
    """
    _, c, least, _, _ = _BOXES[lemma]
    first_q = 2 * least - c  # u = 2 at the least quotient
    if q_max < first_q:
        raise DomainError(f"q_max must be >= {first_q}")
    results = ordered_map(
        partial(_scan_q, lemma), range(first_q, q_max + 1), worker_count(jobs), chunksize=32
    )
    points = 0
    failures = []
    for n, found in results:
        points += n
        failures += found
    failures.sort()
    return points, failures


def verify_lp1(q_max: int, jobs: int = 1) -> VerificationReport:
    """Sweep the offset-2 inequality; it is expected to hold everywhere.

    Box: q <= q_max, u >= 2 with (q+2)/u an integer >= 3, v in {1, 2},
    1 <= s <= u - 1.
    """
    points, failures = _sweep("lp1", q_max, jobs)
    return VerificationReport(
        lemma_id="lp1",
        range_descr=f"4 <= q <= {q_max}, u | q+2, (q+2)/u >= 3, s < u, v in {{1,2}}",
        points_checked=points,
        failures=failures,
        expected_exceptions=[],
    )


def verify_lp11(q_max: int, jobs: int = 1) -> VerificationReport:
    """Sweep the offset-3 inequality over its full (q, u, s, v) box.

    Box: q <= q_max, u >= 2 with (q+3)/u an integer >= 4, v in {1, 2, 3},
    1 <= s <= u - 1. Failures are expected exactly at the pairs
    (q, u) = (17, 2) and (61, 8); the observed failing (s, v) points are
    recorded, with the exact-tie flag.
    """
    points, failing_points = _sweep("lp11", q_max, jobs)
    observations = [
        {
            "q": q,
            "u": u,
            "s": s,
            "v": v,
            "holds": False,
            "equality": _backend._offset3_tie(q, u, s, v),
        }
        for (q, u, s, v) in failing_points
    ]
    return VerificationReport(
        lemma_id="lp11",
        range_descr=f"5 <= q <= {q_max}, u | q+3, (q+3)/u >= 4, s < u, v in {{1,2,3}}",
        points_checked=points,
        failures=sorted({(q, u) for (q, u, _, _) in failing_points}),
        expected_exceptions=list(OFFSET3_EXPECTED_EXCEPTIONS),
        observations=observations,
    )


def verify_lp50(q_max: int, jobs: int = 1) -> VerificationReport:
    """Sweep the offset-3 inequality at s = 1, v = 3 over all (q, u).

    Box: q <= q_max, u >= 2 with (q+3)/u an integer >= 4. Expected to
    fail exactly at (17, 2) and (61, 8); their verdicts are recorded.
    """
    points, failing_points = _sweep("lp50", q_max, jobs)
    failures = [(q, u) for (q, u, _, _) in failing_points]
    observations = [
        {"q": q, "u": u, "holds": False, "equality": _backend._offset3_tie(q, u, 1, 3)}
        for (q, u) in failures
    ]
    return VerificationReport(
        lemma_id="lp50",
        range_descr=f"5 <= q <= {q_max}, u | q+3, (q+3)/u >= 4",
        points_checked=points,
        failures=failures,
        expected_exceptions=list(OFFSET3_EXPECTED_EXCEPTIONS),
        observations=observations,
    )


def verify_lp12() -> VerificationReport:
    """Verify floor(61(8+s)/(8s+3)) > 3912(8+s)/(513s+192) - 1 for every
    s >= 1 except s = 155: ``lp12_point`` at (q, u, v) = (61, 8, 1).

    Points 1 <= s <= 154 are checked exactly. At s = 155 both sides equal
    7 and the strict inequality fails; the verdict is recorded as an
    observation (the claim excludes that point). For s >= 156 the
    threshold argument is verified: the floor side equals 7 there because
    0 < 3s - 464 < 8s + 3, and the other side drops strictly below 7
    because 192s - 29760 > 0; all three linear forms are checked at
    s = 156 and have positive slope, which covers the whole tail.
    """
    failures: list[tuple] = []
    points = 0
    for s in range(1, 155):
        points += 1
        if not _backend.lp12_point(61, 8, s, 1):
            failures.append((s,))

    observations = [
        {
            "s": 155,
            "holds": _backend.lp12_point(61, 8, 155, 1),
            "equality": _backend._offset3_tie(61, 8, 155, 1),
            "floor_value": (61 * (8 + 155)) // (8 * 155 + 3),
        }
    ]

    # tail argument: each linear form positive at s = 156 with positive slope
    tail_forms = [
        ("3s-464", 3, -464),
        ("(8s+3)-(3s-464)", 5, 467),
        ("192s-29760", 192, -29760),
    ]
    for name, slope, intercept in tail_forms:
        points += 1
        if not (slope > 0 and slope * 156 + intercept > 0):
            failures.append(("tail", name))
    tail_floor = (61 * (8 + 156)) // (8 * 156 + 3)
    points += 1
    if tail_floor != 7:
        failures.append(("tail", "floor-at-156"))

    return VerificationReport(
        lemma_id="lp12",
        range_descr="1 <= s <= 154 pointwise; s = 155 recorded; s >= 156 by threshold argument",
        points_checked=points,
        failures=failures,
        expected_exceptions=[],
        observations=observations,
    )


# ---------------------------------------------------------------------------
# Brute-force sub-facts quoted inside the lemma proofs
# ---------------------------------------------------------------------------


def _offset_survivors(c: int, j_offset: int, u_range, k_range, s_min: int):
    """(u, s, k, ell) with integral ell >= 0 in the offset-c proofs' equation.

    k*u**2 - 2cu - cs = (ks+c)*ell + (ks + j_offset), scanned with u
    outermost, then k, then s_min <= s <= u - 1.
    """
    for u in u_range:
        for k in k_range:
            for s in range(s_min, u):
                num = k * u * u - 2 * c * u - c * s - (k * s + j_offset)
                if num >= 0 and num % (k * s + c) == 0:
                    yield u, s, k, num // (k * s + c)


def lp1_case_survivors(k: int) -> list[tuple[int, int, int]]:
    """Triples (u, s, ell) with integral ell in the offset-2 proof's box.

    Solves k*u**2 - 4u - 2s = (ks+2)*ell + (ks+1) for ell over
    2 <= u <= 11, 1 <= s <= u - 1 (the box forced when the remainder is
    maximal and v = 2). Only k = 3 and k = 5 are relevant.
    """
    if k not in (3, 5):
        raise DomainError("the proof's case split only needs k in {3, 5}")
    return [(u, s, ell) for u, s, _, ell in _offset_survivors(2, 1, range(2, 12), (k,), 1)]


_LP11_CASES = {
    # case -> (j offset over ks, v, u range, k range, s_min, surviving condition)
    "2": (1, 3, range(2, 5), range(4, 7), 1, lambda s, ell, u: 3 * s * (ell + 1) <= u * u),
    "3.1": (2, 2, range(2, 18), range(4, 11), 1, lambda s, ell, u: 2 * s * (ell + 1) <= u * u),
    "3.2": (2, 3, range(3, 27), range(4, 14), 2, lambda s, ell, u: 3 * s * (ell + 1) <= 2 * u * u),
}


def lp11_case_survivors(case: str) -> list[tuple[int, int, int, int]]:
    """Quadruples (u, s, k, ell) surviving one offset-3 proof case.

    A survivor has integral ell >= 0 in
    k*u**2 - 6u - 3s = (ks+3)*ell + j  (j = ks+1 or ks+2 by case)
    and satisfies the case's smallness condition. Case "3.1" has the
    single survivor (2, 1, 10, 1), which corresponds to q = 17; the other
    cases are empty.
    """
    if case not in _LP11_CASES:
        raise DomainError(f"unknown case {case!r}; expected one of {sorted(_LP11_CASES)}")
    j_offset, _v, u_range, k_range, s_min, small = _LP11_CASES[case]
    return [
        (u, s, k, ell)
        for u, s, k, ell in _offset_survivors(3, j_offset, u_range, k_range, s_min)
        if small(s, ell, u)
    ]


def lp50_congruence_solvable_ks(j: int) -> list[int]:
    """k values in the offset-3 auxiliary proof with 3*n**2 = j mod (k+3) solvable.

    j = 1 scans 4 <= k <= 17 (solvable only for k in {8, 10});
    j = 2 scans 4 <= k <= 7 (solvable only for k = 7).
    """
    if j == 1:
        k_range = range(4, 18)
    elif j == 2:
        k_range = range(4, 8)
    else:
        raise DomainError("j must be 1 or 2")
    out = []
    for k in k_range:
        mod = k + 3
        if any((3 * n * n) % mod == j % mod for n in range(mod)):
            out.append(k)
    return out
