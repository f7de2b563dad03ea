"""Exact finite-range verification of the floor-inequality lemmas.

Each sweep walks a parameter box (q, u, s, v) where u >= 2 divides
q + c, with c = 2 (offset-2 family) or 3 (offset-3 family), and the
quotient k = (q + c)/u is at least 3 (offset 2) or 4 (offset 3); that
is, q = k*u - c. It decides a strict floor inequality at every point
using only integer arithmetic: floors are Euclidean divisions after
clearing denominators, comparisons are cross-multiplications. No
verification path touches approximate arithmetic.

lp1, lp11 and lp50 are one inequality with offset c, written once in
``_backend._offset_point``, over boxes that differ only in c, the least
quotient (q + c)/u, the (s, v) values and the (q, u) where they are
expected to fail: (17, 2) and (61, 8) for the offset-3 boxes. ``_BOXES``
is the one place a box is described, and ``_verify_box`` turns any box
into its report: the range text is derived from the box, failures are
the sorted failing (q, u), and each failing point is an observation
keyed by q, u and the s and v the box varies, with an exact-tie flag
read from the arguments its kernel call judged. A report passes only
when its failures are exactly the box's expected (q, u) with
q <= q_max, so a regression that "fixes" an exceptional point fails the
sweep.

Each box point is one ``_backend`` kernel call, looked up from
``_backend`` when a u is scanned, so call counts equal the points
checked. The box is walked in (u, k) coordinates: for each u the q are
q = k*u - c for k = least, least + 1, ... up to q_max, and the points
are counted per u as len(qs) * len(vs) * len(ss). Inside a u the walk
streams: per q it forms the few t = q*u + v; per (q, s) it forms the
v-free terms of the inequality from b = u(u + s) and the floor side
plus one, l = floor(q(u + s)/(sk + c)) + 1: lcb = l*c*b and m = b - l*s
(``_offset_point`` derives them from the lemma). It forms them by
addition, not afresh: l is x // y with x = q(u + s) + sk + c and
y = sk + c, and from one s to the next x grows by q + k, y by k, b by u
and c*b by c*u. Each v is then one plain kernel call (lcb, m, t), its
verdict kept in a local; a failing point is named from the kept
verdicts, never by a second call, and ties when lcb == t*m on that
triple. The walk has one loop body per v count: three calls per (q, s)
for lp11, two for lp1, and one per q for lp50, whose single s and v
need no inner loop. No list grows with q_max or u.
With ``jobs > 1`` the u-range is split across workers; per-u results are
added up as they arrive and the failures sorted, so worker count never
changes output content.

``verify_lp12`` checks the offset-3 inequality at (q, u, v) = (61, 8, 1)
for every s >= 1: it holds except at s = 155, where both sides equal 7
exactly; the s >= 156 tail is covered by the threshold argument checked
symbolically (both bounding linear forms have positive slope, so
endpoint checks at s = 156 cover the tail). The pointwise and the tail
checks are ``(point, holds)`` verdicts counted by ``report.tally``.

The brute-force sub-facts quoted inside the lemma proofs are reproduced
by the ``*_survivors`` helpers (which small parameter triples survive an
integrality constraint; the offset-2 and offset-3 cases solve one
equation with offset c, scanned once by ``_offset_survivors``) and by
``lp50_congruence_solvable_ks`` (which quotients k make the auxiliary
congruence 3n^2 = j mod (k + 3) solvable).
"""

from __future__ import annotations

from functools import partial

from . import _backend
from ._pool import ordered_map, worker_count
from .errors import DomainError
from .report import VerificationReport, tally

OFFSET3_EXPECTED_EXCEPTIONS = [(17, 2), (61, 8)]


# lemma -> (kernel, offset c, least quotient (q+c)/u, s values, v values,
# expected failing (q, u)); s values None means 1 <= s < u. ``_scan_u``
# has a loop body for each v count here: those for two and three v advance
# their terms from s = 0 one s at a time, so their s run 1, 2, ...; the
# one for a single v walks its single s. The kernel is named, not held,
# and looked up when a u is scanned, so a kernel replaced on ``_backend``
# is the one called.
_BOXES = {
    "lp1": ("lp1_point", 2, 3, None, (1, 2), []),
    "lp11": ("lp11_point", 3, 4, None, (1, 2, 3), OFFSET3_EXPECTED_EXCEPTIONS),
    "lp50": ("lp50_point", 3, 4, (1,), (3,), OFFSET3_EXPECTED_EXCEPTIONS),
}


def _scan_u(lemma: str, q_max: int, u: int) -> tuple[int, list[tuple[int, int, int, int, bool]]]:
    """Points checked at u, and the failing (q, u, s, v, tie).

    The q of u are q = k*u - c for k >= the least quotient, up to q_max,
    walked one at a time. Per q the scan forms t = q*u + v for each v.
    Per (q, s) it forms the terms that do not depend on v by addition,
    from their values at s = 0: the floor side plus one is
    l = floor(q(u + s)/(sk + c)) + 1 = x // y with x = q(u + s) + sk + c,
    which grows by q + k per s, and y = sk + c, which grows by k;
    b = u(u + s) grows by u and c*b by c*u. Then lcb = l*c*b and
    m = b - l*s, and each v is one plain kernel call (lcb, m, t) whose
    verdict is kept, so a failing point is named from the verdicts
    without a second call; its tie is lcb == t*m on that triple. There
    is one body per v count of ``_BOXES``: three (lp11) and two (lp1)
    calls per (q, s), and for lp50's single s and v one call per q, with
    x, y and t advanced per q. The failure branches are plain loops: a
    comprehension there would make the terms it reads cell variables of
    the whole scan.
    """
    name, c, least, s_values, vs, _ = _BOXES[lemma]
    point = getattr(_backend, name)
    qs = range(least * u - c, q_max + 1, u)
    ss = range(1, u) if s_values is None else s_values
    failures = []
    uu = u * u  # b = u(u + s) at s = 0; q*u grows by u*u per q
    cuu = c * uu
    cu = c * u
    if len(vs) == 3:
        v1, v2, v3 = vs
        for k, q in enumerate(qs, least):
            qu = q * u
            t1 = qu + v1
            t2 = qu + v2
            t3 = qu + v3
            step = q + k
            x = qu + c  # x and y at s = 0
            y = c
            b = uu
            cb = cuu
            for s in ss:
                x += step
                y += k
                b += u
                cb += cu
                l = x // y
                lcb = l * cb
                m = b - l * s
                h1 = point(lcb, m, t1)
                h2 = point(lcb, m, t2)
                h3 = point(lcb, m, t3)
                if not (h1 and h2 and h3):
                    for v, t, h in ((v1, t1, h1), (v2, t2, h2), (v3, t3, h3)):
                        if not h:
                            failures.append((q, u, s, v, lcb == t * m))
    elif len(vs) == 2:
        v1, v2 = vs
        for k, q in enumerate(qs, least):
            qu = q * u
            t1 = qu + v1
            t2 = qu + v2
            step = q + k
            x = qu + c  # x and y at s = 0
            y = c
            b = uu
            cb = cuu
            for s in ss:
                x += step
                y += k
                b += u
                cb += cu
                l = x // y
                lcb = l * cb
                m = b - l * s
                h1 = point(lcb, m, t1)
                h2 = point(lcb, m, t2)
                if not (h1 and h2):
                    for v, t, h in ((v1, t1, h1), (v2, t2, h2)):
                        if not h:
                            failures.append((q, u, s, v, lcb == t * m))
    else:
        (s,) = ss
        (v,) = vs
        b = u * (u + s)
        cb = c * b
        k = least - 1  # x, y and t at the q before the first
        q = k * u - c
        x = q * (u + s) + s * k + c
        y = s * k + c
        t = q * u + v
        dx = b + s  # per q: q(u + s) grows by u(u + s), sk by s
        for q in qs:
            x += dx
            y += s
            t += uu
            l = x // y
            if not point(l * cb, b - l * s, t):
                failures.append((q, u, s, v, l * cb == t * (b - l * s)))
    return len(qs) * len(vs) * len(ss), failures


def _verify_box(lemma: str, q_max: int, jobs: int) -> VerificationReport:
    """The report of the ``_BOXES`` box of ``lemma`` up to q_max.

    Failures are the sorted failing (q, u); the expected ones are the
    box's with q <= q_max. Each failing point is one
    observation, keyed q, u, then s and v where the box varies them, with
    its verdict and the tie ``_scan_u`` read. The per-u results are
    added up as they arrive, so no per-u list is kept.
    """
    _, c, least, s_values, vs, expected = _BOXES[lemma]
    first_q = 2 * least - c  # u = 2 at the least quotient
    if q_max < first_q:
        raise DomainError(f"q_max must be >= {first_q}")
    us = range(2, (q_max + c) // least + 1)  # the last u has q = least*u - c <= q_max
    results = ordered_map(partial(_scan_u, lemma, q_max), us, worker_count(jobs), chunksize=8)
    points = 0
    failing = []
    for n, found in results:
        points += n
        failing += found
    failing.sort()
    varied = "qu" + "s" * (s_values is None) + "v" * (len(vs) > 1)
    observations = [
        {key: x for key, x in zip("qusv", point) if key in varied}
        | {"holds": False, "equality": tie}
        for *point, tie in failing
    ]
    return VerificationReport(
        lemma_id=lemma,
        range_descr=f"{first_q} <= q <= {q_max}, u | q+{c}, (q+{c})/u >= {least}"
        + (", s < u" if "s" in varied else "")
        + (f", v in {{{','.join(map(str, vs))}}}" if "v" in varied else ""),
        points_checked=points,
        failures=sorted({(q, u) for q, u, *_ in failing}),
        expected_exceptions=[(q, u) for q, u in expected if q <= q_max],
        observations=observations or (),
    )


def verify_lp1(q_max: int, jobs: int = 1) -> VerificationReport:
    """Sweep the offset-2 inequality; it is expected to hold everywhere.

    Box: q <= q_max, u >= 2 with (q+2)/u an integer >= 3, v in {1, 2},
    1 <= s <= u - 1.
    """
    return _verify_box("lp1", q_max, jobs)


def verify_lp11(q_max: int, jobs: int = 1) -> VerificationReport:
    """Sweep the offset-3 inequality over its full (q, u, s, v) box.

    Box: q <= q_max, u >= 2 with (q+3)/u an integer >= 4, v in {1, 2, 3},
    1 <= s <= u - 1. Failures are expected exactly at the pairs
    (q, u) = (17, 2) and (61, 8); the observed failing (s, v) points are
    recorded, with the exact-tie flag.
    """
    return _verify_box("lp11", q_max, jobs)


def verify_lp50(q_max: int, jobs: int = 1) -> VerificationReport:
    """Sweep the offset-3 inequality at s = 1, v = 3 over all (q, u).

    Box: q <= q_max, u >= 2 with (q+3)/u an integer >= 4. Expected to
    fail exactly at (17, 2) and (61, 8); their verdicts are recorded.
    """
    return _verify_box("lp50", q_max, jobs)


def verify_lp12() -> VerificationReport:
    """Verify floor(61(8+s)/(8s+3)) > 3912(8+s)/(513s+192) - 1 for every
    s >= 1 except s = 155: ``lp11_point`` at (q, u, v) = (61, 8, 1),
    that is at k = (61 + 3)/8 = 8 and t = 61*8 + 1 = 489, with
    l = floor(61(8+s)/(8s+3)) + 1 and b = 8(8+s), so each s is the
    kernel call (3*l*b, b - l*s, 489). ``at`` forms l and that call once
    per s, for the kernel, the s = 155 record and the s = 156 floor.

    Points 1 <= s <= 154 are checked exactly. At s = 155 both sides equal
    7 and the strict inequality fails; the verdict is recorded as an
    observation (the claim excludes that point), with the tie read from
    the call's arguments and the floor side l - 1. For s >= 156 the
    threshold argument is verified: the floor side equals 7 there because
    0 < 3s - 464 < 8s + 3, and the other side drops strictly below 7
    because 192s - 29760 > 0; all three linear forms are checked at
    s = 156 and have positive slope, which covers the whole tail.
    """

    def at(s):
        """l and the kernel arguments (lcb, m, t) at s."""
        b = 8 * (8 + s)
        l = 61 * (8 + s) // (8 * s + 3) + 1
        return l, (3 * l * b, b - l * s, 489)

    l, (lcb, m, t) = at(155)
    observations = [
        {
            "s": 155,
            "holds": _backend.lp11_point(lcb, m, t),
            "equality": lcb == t * m,
            "floor_value": l - 1,
        }
    ]

    def verdicts():
        for s in range(1, 155):
            yield (s,), _backend.lp11_point(*at(s)[1])
        # tail argument: each linear form positive at s = 156 with positive slope
        for name, slope, intercept in (
            ("3s-464", 3, -464),
            ("(8s+3)-(3s-464)", 5, 467),
            ("192s-29760", 192, -29760),
        ):
            yield ("tail", name), slope > 0 and slope * 156 + intercept > 0
        yield ("tail", "floor-at-156"), at(156)[0] - 1 == 7

    return tally(
        "lp12",
        "1 <= s <= 154 pointwise; s = 155 recorded; s >= 156 by threshold argument",
        verdicts(),
        observations,
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
    # case -> (j offset over ks, u range, k range, s_min, surviving condition);
    # the paper splits the cases by v: v = 3 in "2" and "3.2", v = 2 in "3.1"
    "2": (1, range(2, 5), range(4, 7), 1, lambda s, ell, u: 3 * s * (ell + 1) <= u * u),
    "3.1": (2, range(2, 18), range(4, 11), 1, lambda s, ell, u: 2 * s * (ell + 1) <= u * u),
    "3.2": (2, range(3, 27), range(4, 14), 2, lambda s, ell, u: 3 * s * (ell + 1) <= 2 * u * u),
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
    j_offset, u_range, k_range, s_min, small = _LP11_CASES[case]
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
    if j not in (1, 2):
        raise DomainError("j must be 1 or 2")
    k_range = range(4, 18) if j == 1 else range(4, 8)  # k + 3 > j, so j is its own residue
    return [k for k in k_range if any(3 * n * n % (k + 3) == j for n in range(k + 3))]
