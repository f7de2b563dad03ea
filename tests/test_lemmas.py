"""Floor-inequality sweeps, their exceptional points, and proof sub-facts."""

from fractions import Fraction

import pytest

from egfrac import _backend, lemmas
from egfrac._backend import lp1_point, lp11_point, lp50_point, lp12_point
from egfrac.errors import DomainError
import oracles


def test_lp1_sweep_clean():
    report = lemmas.verify_lp1(200)
    assert report.passed
    assert report.failures == []
    assert report.expected_exceptions == []
    assert report.points_checked > 10_000


def test_lp1_smallest_admissible_point():
    # q = 4, u = 2 gives (q+2)/u = 3; the single admissible (s, v) box point
    assert lp1_point(4, 2, 1, 1)
    assert lp1_point(4, 2, 1, 2)


def test_lp11_sweep_fails_only_at_known_pairs():
    report = lemmas.verify_lp11(200)
    assert report.passed
    assert report.failures == [(17, 2), (61, 8)]
    # observed verdicts at the exceptional pairs, including the exact tie
    observed = {(o["q"], o["u"], o["s"], o["v"]): o["equality"] for o in report.observations}
    assert observed == {(17, 2, 1, 2): True, (17, 2, 1, 3): False, (61, 8, 1, 3): False}


def test_lp11_points_hold_elsewhere_at_exceptional_q():
    # at q = 17, u = 2 the v = 1 point still holds
    assert lp11_point(17, 2, 1, 1)
    assert not lp11_point(17, 2, 1, 2)
    assert not lp11_point(17, 2, 1, 3)
    assert not lp11_point(61, 8, 1, 3)
    assert lp11_point(61, 8, 1, 2)


def test_lp50_sweep_and_spot_points():
    report = lemmas.verify_lp50(200)
    assert report.passed
    assert report.failures == [(17, 2), (61, 8)]
    assert all(not o["equality"] for o in report.observations)
    assert lp50_point(13, 4, 1, 3)
    assert not lp50_point(17, 2, 1, 3)


def _lp50_tie_by_fractions(q, u):
    """lp50's two sides, floor(qu(u+1)/(q+3(u+1))) and
    (qu+3)u(u+1)/(qu+3+3u(u+1)) - 1, agree exactly."""
    floor_side = q * u * (u + 1) // (q + 3 * (u + 1))
    other_side = Fraction((q * u + 3) * u * (u + 1), q * u + 3 + 3 * u * (u + 1)) - 1
    return floor_side == other_side


def test_lp50_ties_are_offset3_ties_at_s1_v3():
    for q in range(5, 2001):
        for u in range(2, (q + 3) // 4 + 1):
            if (q + 3) % u == 0:
                assert _backend._offset3_tie(q, u, 1, 3) == _lp50_tie_by_fractions(q, u)
    # the lp50 box has no ties; off the box there are, and they agree too
    grid = [(q, u) for q in range(1, 301) for u in range(1, 101)]
    ties = {qu for qu in grid if _lp50_tie_by_fractions(*qu)}
    assert len(ties) > 100
    assert all(_backend._offset3_tie(q, u, 1, 3) == ((q, u) in ties) for q, u in grid)
    assert lemmas.verify_lp50(100).observations == [
        {"q": 17, "u": 2, "holds": False, "equality": False},
        {"q": 61, "u": 8, "holds": False, "equality": False},
    ]


def test_lp12_report():
    report = lemmas.verify_lp12()
    assert report.passed
    assert report.failures == []
    obs = report.observations[0]
    assert obs["s"] == 155
    assert obs["equality"] is True
    assert obs["holds"] is False
    assert obs["floor_value"] == 7


def test_lp12_spot_points():
    # s = 1: floor(61*9/11) = 49 against 3912*9/705 - 1 (just below 49)
    assert (61 * 9) // 11 == 49
    assert lp12_point(61, 8, 1, 1)
    assert not lp12_point(61, 8, 155, 1)
    assert lp12_point(61, 8, 156, 1)
    assert lp12_point(61, 8, 10**7, 1)


def test_lp12_is_the_offset3_inequality_at_61_8_1():
    # the kernel against lp12 written out in s alone: the same verdict and tie
    # at every s, failing and tying only at s = 155
    failing = []
    for s in range(1, 20_000):
        holds = lp12_point(61, 8, s, 1)
        assert holds == oracles.lp12_point(s), s
        assert _backend._offset3_tie(61, 8, s, 1) == oracles.lp12_is_tie(s), s
        if not holds:
            failing.append(s)
    assert failing == [155] and oracles.lp12_is_tie(155)


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
    a = lemmas.verify_lp11(120)
    b = lemmas.verify_lp11(120)
    assert a == b
    c = lemmas.verify_lp11(120, jobs=2)
    assert a == c
    assert lemmas.verify_lp1(100, jobs=2) == lemmas.verify_lp1(100)


def test_kernels_match_the_unshared_formulas():
    # the kernels share b = u(u+s) and t = qu+v between the two sides
    verdicts = set()
    for q, u in oracles.lemma_box(400, 2, 3):
        for s in range(1, u):
            for v in (1, 2):
                assert lp1_point(q, u, s, v) == oracles.lp1_point(q, u, s, v), (q, u, s, v)
    for q, u in oracles.lemma_box(400, 3, 4):
        assert lp50_point(q, u, 1, 3) == oracles.lp50_point(q, u), (q, u)
        for s in range(1, u):
            for v in (1, 2, 3):
                point = (q, u, s, v)
                verdicts.add(lp11_point(*point))
                assert lp11_point(*point) == oracles.lp11_point(*point), point
                assert _backend._offset3_tie(*point) == oracles.lp11_is_tie(*point), point
    assert verdicts == {True, False}  # the box holds the failures at (17, 2) and (61, 8)
    # off the boxes, where the inequalities fail and tie far more often
    verdicts = {True: 0, False: 0}
    ties = 0
    for q in range(1, 61):
        for u in range(1, 25):
            for s in range(1, u + 3):
                for v in range(1, 5):
                    point = (q, u, s, v)
                    assert lp1_point(*point) == oracles.lp1_point(*point), point
                    assert lp11_point(*point) == oracles.lp11_point(*point), point
                    tie = _backend._offset3_tie(*point)
                    assert tie == oracles.lp11_is_tie(*point), point
                    verdicts[lp11_point(*point)] += 1
                    ties += tie
        for u in range(1, 100):
            assert lp50_point(q, u, 1, 3) == oracles.lp50_point(q, u), (q, u)
    assert min(verdicts.values()) > 1000 and ties > 10


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


def test_admissible_divisors_match_trial_division():
    for min_quotient in (3, 4):
        for total in range(1, 5001):
            expected = [
                u for u in range(2, total // min_quotient + 1) if total % u == 0
            ]
            assert lemmas._admissible_divisors(total, min_quotient) == expected, (
                total,
                min_quotient,
            )
