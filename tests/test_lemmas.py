"""Floor-inequality sweeps, their exceptional points, and proof sub-facts."""

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from egfrac import _backend, cli, lemmas
from egfrac._backend import lp1_point, lp11_point, lp50_point
from egfrac.errors import DomainError
import oracles


def _at(c, q, u, s, v):
    """The kernel arguments (lcb, m, t) of the offset-c lemma point (q, u, s, v)."""
    k, r = divmod(q + c, u)
    assert r == 0, (c, q, u)
    b = u * (u + s)
    l = q * (u + s) // (s * k + c) + 1
    return l * c * b, b - l * s, q * u + v


def _tie(c, q, u, s, v):
    """Whether the offset-c lemma's two sides agree exactly at (q, u, s, v):
    lcb == t*m on the point's kernel arguments, as the sweeps read it."""
    lcb, m, t = _at(c, q, u, s, v)
    return lcb == t * m


# suite -> (kernel, offset, least quotient, v values); lp50 has s = 1, v = 3
_KERNELS = {
    "lp1": ("lp1_point", 2, 3, (1, 2)),
    "lp11": ("lp11_point", 3, 4, (1, 2, 3)),
    "lp50": ("lp50_point", 3, 4, (3,)),
}


def _box_points(suite, q_max):
    """The (q, u, s, v) of a suite's box, with (q, u) by trial division."""
    _, offset, least, vs = _KERNELS[suite]
    for q, u in oracles.lemma_box(q_max, offset, least):
        for s in (1,) if suite == "lp50" else range(1, u):
            for v in vs:
                yield q, u, s, v


def _points_by_args(suite, q_max):
    """The box point of each kernel argument triple of a suite's box.

    The triples are distinct at the sizes the tests use (q_max <= 200),
    which is asserted; at q_max = 600 a few of them collide.
    """
    c = _KERNELS[suite][1]
    box = list(_box_points(suite, q_max))
    lookup = {_at(c, *point): point for point in box}
    assert len(lookup) == len(box), (suite, q_max)
    return lookup


def test_lp1_sweep_clean():
    report = lemmas.verify_lp1(200)
    assert report.passed
    assert report.failures == []
    assert report.expected_exceptions == []
    assert report.points_checked > 10_000


def test_lp1_smallest_admissible_point():
    # q = 4, u = 2 gives (q+2)/u = 3; the single admissible (s, v) box point
    assert lp1_point(*_at(2, 4, 2, 1, 1))
    assert lp1_point(*_at(2, 4, 2, 1, 2))


def test_lp11_sweep_fails_only_at_known_pairs():
    report = lemmas.verify_lp11(200)
    assert report.passed
    assert report.failures == [(17, 2), (61, 8)]
    # observed verdicts at the exceptional pairs, including the exact tie
    observed = {(o["q"], o["u"], o["s"], o["v"]): o["equality"] for o in report.observations}
    assert observed == {(17, 2, 1, 2): True, (17, 2, 1, 3): False, (61, 8, 1, 3): False}


def test_lp11_points_hold_elsewhere_at_exceptional_q():
    # at q = 17, u = 2 the v = 1 point still holds
    assert lp11_point(*_at(3, 17, 2, 1, 1))
    assert not lp11_point(*_at(3, 17, 2, 1, 2))
    assert not lp11_point(*_at(3, 17, 2, 1, 3))
    assert not lp11_point(*_at(3, 61, 8, 1, 3))
    assert lp11_point(*_at(3, 61, 8, 1, 2))


def test_lp50_sweep_and_spot_points():
    report = lemmas.verify_lp50(200)
    assert report.passed
    assert report.failures == [(17, 2), (61, 8)]
    assert all(not o["equality"] for o in report.observations)
    assert lp50_point(*_at(3, 13, 4, 1, 3))
    assert not lp50_point(*_at(3, 17, 2, 1, 3))


def _lp50_tie_by_fractions(q, u):
    """lp50's two sides, floor(qu(u+1)/(q+3(u+1))) and
    (qu+3)u(u+1)/(qu+3+3u(u+1)) - 1, agree exactly."""
    floor_side = q * u * (u + 1) // (q + 3 * (u + 1))
    other_side = Fraction((q * u + 3) * u * (u + 1), q * u + 3 + 3 * u * (u + 1)) - 1
    return floor_side == other_side


def test_lp50_ties_are_offset3_ties_at_s1_v3():
    # every lattice point q + 3 = k*u with q <= 2000, k >= 1: the lp50 box
    # (k >= 4) has no ties, and the rest of the lattice ties only at q = 3
    ties = []
    for u in range(1, 2004):
        for q in range(u - 3, 2001, u):
            if q >= 1:
                tie = _tie(3, q, u, 1, 3)
                assert tie == _lp50_tie_by_fractions(q, u), (q, u)
                if tie:
                    ties.append((q, u))
    assert ties == [(3, 1), (3, 2), (3, 3), (3, 6)]
    assert lemmas.verify_lp50(100).observations == [
        {"q": 17, "u": 2, "holds": False, "equality": False},
        {"q": 61, "u": 8, "holds": False, "equality": False},
    ]


def test_lp12_report():
    report = lemmas.verify_lp12()
    assert report.passed
    assert report.failures == [] and report.expected_exceptions == ()
    obs = report.observations[0]
    assert obs["s"] == 155
    assert obs["equality"] is True
    assert obs["holds"] is False
    assert obs["floor_value"] == 7


def test_lp12_spot_points():
    # s = 1: floor(61*9/11) = 49 against 3912*9/705 - 1 (just below 49)
    assert (61 * 9) // 11 == 49
    assert lp11_point(*_at(3, 61, 8, 1, 1))
    assert not lp11_point(*_at(3, 61, 8, 155, 1))
    assert lp11_point(*_at(3, 61, 8, 156, 1))
    assert lp11_point(*_at(3, 61, 8, 10**7, 1))


def test_lp12_is_the_offset3_inequality_at_61_8_1():
    # the kernel against lp12 written out in s alone: the same verdict and tie
    # at every s, failing and tying only at s = 155
    failing = []
    for s in range(1, 20_000):
        holds = lp11_point(*_at(3, 61, 8, s, 1))
        assert holds == oracles.lp12_point(s), s
        assert _tie(3, 61, 8, s, 1) == oracles.lp12_is_tie(s), s
        if not holds:
            failing.append(s)
    assert failing == [155] and oracles.lp12_is_tie(155)


# one admissible point of each box where the kernel holds, off the expected failures
@pytest.mark.parametrize(
    "suite, point, keys",
    [
        ("lp1", (10, 3, 2, 2), ["q", "u", "s", "v", "holds", "equality"]),
        ("lp11", (9, 3, 2, 3), ["q", "u", "s", "v", "holds", "equality"]),
        ("lp50", (9, 3, 1, 3), ["q", "u", "holds", "equality"]),
    ],
)
def test_a_failing_point_is_reported_by_its_q_u(capsys, monkeypatch, suite, point, keys):
    name, c = lemmas._BOXES[suite][:2]
    kernel = getattr(_backend, name)
    at = _at(c, *point)
    assert kernel(*at)
    monkeypatch.setattr(_backend, name, lambda *p: p != at and kernel(*p))
    q, u = point[:2]
    report = getattr(lemmas, f"verify_{suite}")(q)
    assert report.failures == [(q, u)] and not report.passed
    [observation] = report.observations
    assert list(observation) == keys
    assert observation == dict(zip(keys, point[: len(keys) - 2] + (False, False)))

    code = cli.main(["--format", "plain", "verify", suite, "--q-max", str(q)])
    out = capsys.readouterr().out
    assert code == cli.EXIT_VERIFY_FAILED
    assert out.startswith(f"FAIL {suite}") and f"failure at {(q, u)}" in out


# a kernel that holds at an expected failure: the lemma's exceptions are lost
@pytest.mark.parametrize("holds_at", ["17-2", "everywhere"])
@pytest.mark.parametrize("suite", ["lp11", "lp50"])
def test_a_kernel_that_holds_at_an_expected_failure_fails_the_sweep(
    capsys, monkeypatch, suite, holds_at
):
    name = lemmas._BOXES[suite][0]
    kernel = getattr(_backend, name)
    if holds_at == "everywhere":
        monkeypatch.setattr(_backend, name, lambda *p: True)
    else:
        points = _points_by_args(suite, 100)
        monkeypatch.setattr(_backend, name, lambda *p: points[p][:2] == (17, 2) or kernel(*p))
    assert not getattr(lemmas, f"verify_{suite}")(100).passed
    code = cli.main(["--format", "plain", "verify", suite, "--q-max", "100"])
    assert code == cli.EXIT_VERIFY_FAILED
    assert capsys.readouterr().out.startswith(f"FAIL {suite}")


@pytest.mark.parametrize(
    "q_max, expected",
    [(16, []), (17, [(17, 2)]), (60, [(17, 2)]), (61, [(17, 2), (61, 8)])],
)
def test_expected_exceptions_are_the_ones_in_range(q_max, expected):
    report = lemmas.verify_lp11(q_max)
    assert report.expected_exceptions == expected
    assert report.failures == expected and report.passed


def test_q_max_preconditions():
    with pytest.raises(DomainError):
        lemmas.verify_lp1(3)
    with pytest.raises(DomainError):
        lemmas.verify_lp11(4)


def test_lp1_proof_survivors():
    assert lemmas.lp1_case_survivors(3) == [(7, 4, 7)]
    assert lemmas.lp1_case_survivors(5) == [(4, 1, 8), (8, 1, 40), (11, 1, 79), (11, 8, 12)]
    # every survivor violates the smallness condition the proof needs
    for k in (3, 5):
        for u, s, ell in lemmas.lp1_case_survivors(k):
            assert 2 * s * (ell + 1) > u * u
    with pytest.raises(DomainError):
        lemmas.lp1_case_survivors(4)


def test_lp11_proof_survivors():
    assert lemmas.lp11_case_survivors("2") == []
    assert lemmas.lp11_case_survivors("3.1") == [(2, 1, 10, 1)]
    assert lemmas.lp11_case_survivors("3.2") == []
    with pytest.raises(DomainError):
        lemmas.lp11_case_survivors("5")


def test_lp50_congruence_subfacts():
    assert lemmas.lp50_congruence_solvable_ks(1) == [8, 10]
    assert lemmas.lp50_congruence_solvable_ks(2) == [7]
    with pytest.raises(DomainError):
        lemmas.lp50_congruence_solvable_ks(3)


def test_reports_are_deterministic_and_parallel_safe():
    # 29 u for the offset-3 boxes at q_max 120 and 33 for lp1 at 100: the
    # pool's chunks of 8 u do not divide them evenly
    a = lemmas.verify_lp11(120)
    b = lemmas.verify_lp11(120)
    assert a == b
    c = lemmas.verify_lp11(120, jobs=2)
    assert a == c
    assert lemmas.verify_lp1(100, jobs=2) == lemmas.verify_lp1(100)
    assert lemmas.verify_lp50(120, jobs=2) == lemmas.verify_lp50(120)


def _offset2_tie_by_fractions(q, u, s, v):
    """lp1's two sides, floor(qu(u+s)/(s(q+2)+2u)) and
    (qu+v)u(u+s)/(squ+vs+2u(u+s)) - 1, agree exactly."""
    floor_side = q * u * (u + s) // (s * (q + 2) + 2 * u)
    other_side = Fraction((q * u + v) * u * (u + s), s * q * u + v * s + 2 * u * (u + s)) - 1
    return floor_side == other_side


def test_kernels_match_the_unshared_formulas():
    # the kernels take the floor side ready-made, with u cancelled, inside
    # lcb = l*c*b and m = b - l*s, and decide l*(s*t + c*b) > t*b as lcb > t*m
    verdicts = set()
    for q, u in oracles.lemma_box(400, 2, 3):
        for s in range(1, u):
            for v in (1, 2):
                point = (q, u, s, v)
                assert lp1_point(*_at(2, *point)) == oracles.lp1_point(*point), point
    for q, u in oracles.lemma_box(400, 3, 4):
        assert lp50_point(*_at(3, q, u, 1, 3)) == oracles.lp50_point(q, u), (q, u)
        for s in range(1, u):
            for v in (1, 2, 3):
                point = (q, u, s, v)
                verdicts.add(lp11_point(*_at(3, *point)))
                assert lp11_point(*_at(3, *point)) == oracles.lp11_point(*point), point
                assert _tie(3, *point) == oracles.lp11_is_tie(*point), point
    assert verdicts == {True, False}  # the box holds the failures at (17, 2) and (61, 8)
    # off the boxes, where the inequalities fail and tie far more often: the
    # kernels and the ties on the lattice q = k*u - c for every k >= 1
    verdicts = {True: 0, False: 0}
    offset3_ties = offset2_ties = 0
    for q in range(1, 61):
        for u in range(1, 25):
            for s in range(1, u + 3):
                for v in range(1, 9):
                    point = (q, u, s, v)
                    if (q + 2) % u == 0:
                        assert lp1_point(*_at(2, *point)) == oracles.lp1_point(*point), point
                        tie = _tie(2, *point)
                        assert tie == _offset2_tie_by_fractions(*point), point
                        offset2_ties += tie
                    if (q + 3) % u == 0:
                        holds = lp11_point(*_at(3, *point))
                        assert holds == oracles.lp11_point(*point), point
                        verdicts[holds] += 1
                        tie = _tie(3, *point)
                        assert tie == oracles.lp11_is_tie(*point), point
                        offset3_ties += tie
        for u in range(1, 100):
            if (q + 3) % u == 0:
                assert lp50_point(*_at(3, q, u, 1, 3)) == oracles.lp50_point(q, u), (q, u)
    # 62 offset-2 and 78 offset-3 lattice ties
    assert min(verdicts.values()) > 1000
    assert offset2_ties > 50 and offset3_ties > 50


def test_kernels_are_exact_at_large_box_points():
    # u up to 10**6 and k up to 10**9, at every scale: products far past
    # 64 bits, against the formulas with u left in the floor side
    rng = random.Random(20231105)
    for _ in range(4000):
        u = rng.randint(2, 10 ** rng.randint(1, 6))
        s = rng.randint(1, u - 1)
        for c, least, kernel, oracle, vs in (
            (2, 3, lp1_point, oracles.lp1_point, (1, 2)),
            (3, 4, lp11_point, oracles.lp11_point, (1, 2, 3)),
        ):
            k = rng.randint(least, 10 ** rng.randint(1, 9))
            q = k * u - c
            for v in vs:
                point = (q, u, s, v)
                assert kernel(*_at(c, *point)) == oracle(*point), (c, point)


def _unrearranged(c, q, u, s, v):
    """The offset-c verdict l*(s*t + c*b) > t*b, before it is rearranged."""
    k = (q + c) // u
    b = u * (u + s)
    l = q * (u + s) // (s * k + c) + 1
    t = q * u + v
    return l * (s * t + c * b) > t * b


def test_the_rearranged_kernel_is_exact_for_every_sign_of_m():
    # l*(s*t + c*b) > t*b  <=>  l*c*b > t*(b - l*s) in integers, so the kernel
    # agrees with the old form and the unshared formulas whatever the sign
    # of m = b - l*s
    for suite, oracle in (("lp1", oracles.lp1_point), ("lp11", oracles.lp11_point)):
        name, c = _KERNELS[suite][:2]
        kernel = getattr(_backend, name)
        signs = Counter()
        for point in _box_points(suite, 200):
            lcb, m, t = _at(c, *point)
            signs[(m > 0) - (m < 0)] += 1
            assert kernel(lcb, m, t) == _unrearranged(c, *point) == oracle(*point), (suite, point)
        assert set(signs) == {-1, 0, 1}, (suite, signs)
    # q near 10**30 with u small: the floor side is just under b/s, so m is
    # 0 where s divides b and negative elsewhere, and every v holds
    rng = random.Random(20261020)
    signs = Counter()
    for _ in range(2000):
        u = rng.randint(2, 10 ** rng.randint(1, 3))
        s = rng.randint(1, u - 1)
        for c, kernel, oracle, vs in (
            (2, lp1_point, oracles.lp1_point, (1, 2)),
            (3, lp11_point, oracles.lp11_point, (1, 2, 3)),
        ):
            q = (10**30 // u + rng.randint(0, 10**6)) * u - c
            for v in vs:
                point = (q, u, s, v)
                lcb, m, t = _at(c, *point)
                assert m <= 0, (c, point)
                signs[m == 0] += 1
                assert kernel(lcb, m, t) and _unrearranged(c, *point) and oracle(*point), (c, point)
    assert signs[True] > 100 and signs[False] > 100


@pytest.mark.parametrize("q_max", [5, 17, 61, 200])
def test_points_checked_is_the_box_size(q_max):
    # counted point by point, not per u as the sweeps count
    offset2 = list(oracles.lemma_box(q_max, 2, 3))
    offset3 = list(oracles.lemma_box(q_max, 3, 4))
    lp1 = sum(1 for q, u in offset2 for s in range(1, u) for v in (1, 2))
    lp11 = sum(1 for q, u in offset3 for s in range(1, u) for v in (1, 2, 3))
    lp50 = len(offset3)
    assert lemmas.verify_lp1(q_max).points_checked == lp1
    assert lemmas.verify_lp11(q_max).points_checked == lp11
    assert lemmas.verify_lp50(q_max).points_checked == lp50
    assert lemmas.verify_lp1(q_max, jobs=2).points_checked == lp1
    if q_max == 5:
        # the smallest boxes: (q, u) = (4, 2) for lp1 and (5, 2) for lp11 and lp50
        assert (lp1, lp11, lp50) == (2, 3, 1)
        assert lemmas.verify_lp1(4).points_checked == 2


def test_kernels_are_asked_about_exactly_the_box(monkeypatch):
    calls = {suite: Counter() for suite in _KERNELS}
    for suite, (name, *_) in _KERNELS.items():
        kernel = getattr(_backend, name)

        def recorder(*args, kernel=kernel, seen=calls[suite]):
            seen[args] += 1
            return kernel(*args)

        monkeypatch.setattr(_backend, name, recorder)
    for q_max in [*range(5, 131), 200]:
        for suite, seen in calls.items():
            seen.clear()
            report = getattr(lemmas, f"verify_{suite}")(q_max, jobs=1)
            box = list(_box_points(suite, q_max))
            assert len(set(box)) == len(box) == report.points_checked, (suite, q_max)
            # each call's (lcb, m, t) is the one _at forms from its box point
            c = _KERNELS[suite][1]
            assert seen == Counter(_at(c, *point) for point in box), (suite, q_max)


@pytest.mark.parametrize("u_at", ["2", "97", "last"])
@pytest.mark.parametrize("suite", list(_KERNELS))
def test_the_added_up_terms_match_the_box_at_large_u_and_k(monkeypatch, suite, u_at):
    # _scan_u advances x, y, b and c*b by addition; at q_max 1500 u = 2
    # walks 749 q of lp1 (k up to 751), and the last u walks one q with
    # up to 499 s, so a term that drifts from its definition shows here
    name, c, least, vs = _KERNELS[suite]
    q_max = 1500
    u = {"2": 2, "97": 97, "last": (q_max + c) // least}[u_at]
    seen = Counter()

    def recorder(*args):
        seen[args] += 1
        return True

    monkeypatch.setattr(_backend, name, recorder)
    points, failures = lemmas._scan_u(suite, q_max, u)
    box = [
        (q, u, s, v)
        for q, w in oracles.lemma_box(q_max, c, least)
        if w == u
        for s in ((1,) if suite == "lp50" else range(1, u))
        for v in vs
    ]
    assert points == len(box) == sum(seen.values()) and failures == []
    assert seen == Counter(_at(c, *point) for point in box), (suite, u)


# one admissible point per box, off the expected failures, failed at each v
@pytest.mark.parametrize(
    "suite, point",
    [("lp1", (40, 6, 4, v)) for v in (1, 2)] + [("lp11", (45, 6, 3, v)) for v in (1, 2, 3)],
)
def test_a_failure_at_each_v_is_named_without_a_second_call(monkeypatch, suite, point):
    name, c = lemmas._BOXES[suite][:2]
    kernel = getattr(_backend, name)
    at = _at(c, *point)
    assert _points_by_args(suite, 200)[at] == point and kernel(*at)
    calls = Counter()

    def failing(*p):
        calls[p] += 1
        return p != at and kernel(*p)

    verify = getattr(lemmas, f"verify_{suite}")
    clean = verify(200, jobs=1)
    monkeypatch.setattr(_backend, name, failing)
    report = verify(200, jobs=1)
    q, u, s, v = point
    assert report.failures == sorted(clean.failures + [(q, u)]) and not report.passed
    # the one observation added names the failed point; lp11's own stay as they were
    observation = {"q": q, "u": u, "s": s, "v": v, "holds": False, "equality": False}
    assert report.observations == sorted(
        [*clean.observations, observation], key=lambda o: (o["q"], o["u"], o["s"], o["v"])
    )
    # every verdict is kept from its one call: the failure costs no second call
    assert sum(calls.values()) == report.points_checked and calls[at] == 1


def test_a_failing_lp12_point_is_reported(capsys, monkeypatch):
    real = _backend.lp11_point

    def failing_at_7():
        # s = 8 has s = 7's (lcb, m, t) = (5760, 8, 489), and s = 7 is asked
        # first, so only the first call with that triple fails
        pending = [_at(3, 61, 8, 7, 1)]

        def kernel(*p):
            if p in pending:
                pending.clear()
                return False
            return real(*p)

        return kernel

    assert _at(3, 61, 8, 7, 1) == _at(3, 61, 8, 8, 1) == (5760, 8, 489)
    monkeypatch.setattr(_backend, "lp11_point", failing_at_7())
    report = lemmas.verify_lp12()
    assert report.failures == [(7,)] and report.points_checked == 158
    assert [(o["s"], o["holds"]) for o in report.observations] == [(155, False)]
    monkeypatch.setattr(_backend, "lp11_point", failing_at_7())
    code = cli.main(["verify", "lp12"])
    assert code == cli.EXIT_VERIFY_FAILED
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == [[7]] and payload["passed"] is False
