"""Counterexample construction for every index k >= 4 and its certificates."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from egfrac import counterexamples as ce
from egfrac import greedy, underapprox
from egfrac.errors import DomainError
from oracles import select_v as oracle_select_v


def test_construct_k4_is_the_classic_example():
    c = ce.construct(4)
    assert (c.p, c.q, c.v) == (5, 16, 1)
    assert c.greedy_pair == (4, 17)
    assert c.beating_pair == (5, 9)
    assert c.s is None
    assert c.margin == Fraction(1, 5) + Fraction(1, 9) - Fraction(1, 4) - Fraction(1, 17)
    assert c.margin > 0


def test_construct_table_rows():
    c6 = ce.construct(6)
    assert (c6.v, c6.q) == (8, 330)
    c7 = ce.construct(7)
    assert c7.v == 8
    # table entries are used exactly on their stated ranges
    assert ce.select_v(46) == (16, None)
    assert ce.select_v(23) == (12, None)
    # first k past each table switches to the bracket rule
    v50, s50 = ce.select_v(50)  # k = 4*12+2
    assert s50 == 0 and v50 == 20
    v27, s27 = ce.select_v(27)  # k = 4*6+3
    assert s27 == 2 and v27 == 16


def test_select_v_brackets_cover_4_to_300():
    for k in range(4, 301):
        v, s = ce.select_v(k)
        assert v >= 1
        if k % 4 == 0:
            assert (v, s) == (1, None)
    with pytest.raises(DomainError):
        ce.select_v(3)


def test_select_v_matches_bracket_oracle():
    for k in range(4, 2001):
        assert ce.select_v(k) == oracle_select_v(k), k


def test_bracket_s_finds_huge_j_in_its_bracket():
    # one bracket at a time this is ~10**15 steps; run apart, so the timeout ends it
    j = 10**30 + 7
    script = (
        "from egfrac import counterexamples as ce\n"
        f"print([ce._bracket_s(residue, {j}) for residue in (1, 2, 3)])\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    for residue, s in zip((1, 2, 3), json.loads(proc.stdout), strict=True):
        _, first, last, _ = ce._BRACKETS[residue]
        assert first(s) <= j <= last(s)
        assert s == oracle_select_v(4 * j + residue)[1]


def test_check_s5_examples():
    assert ce.check_s5(4, 1)
    assert ce.check_s5(10, 11)
    # regression point far outside the tables, frozen from the exact formula
    assert ce.check_s5(4, 10**6)
    with pytest.raises(DomainError):
        ce.check_s5(3, 1)


def test_check_s5_on_all_table_entries():
    report = ce.verify_tables()
    assert report.passed
    assert report.points_checked == 16


def test_v_equals_1_family():
    for k in range(4, 201, 4):
        assert ce.check_s5(k, 1)


def test_beating_pair_examples():
    greedy_pair, beat = ce.beating_pair(4, 1)
    assert greedy_pair == (4, 17) and beat == (5, 9)
    greedy_pair, beat = ce.beating_pair(6, 8)
    theta = Fraction(7, 330)
    s_greedy = Fraction(1, greedy_pair[0]) + Fraction(1, greedy_pair[1])
    s_beat = Fraction(1, beat[0]) + Fraction(1, beat[1])
    assert s_greedy < s_beat < theta
    with pytest.raises(DomainError):
        ce.beating_pair(5, 1)  # fails the suitability inequality


def test_beating_partner_is_greedy_partner():
    for k in (4, 5, 6, 7, 9, 12, 30):
        c = ce.construct(k)
        theta = Fraction(c.p, c.q)
        x1, x2 = c.beating_pair
        assert x1 == c.greedy_pair[0] + 1
        assert x2 == greedy.g_func(theta - Fraction(1, x1))


def test_construct_sweep_small():
    for k in range(4, 61):
        c = ce.construct(k)
        assert greedy.upsilon(c.p, c.q) == c.k
        assert c.q % c.k == 0
        assert c.margin > 0
        # the beating pair is findable by the complete two-term search
        best = underapprox.best_m_term(Fraction(c.p, c.q), 2)
        assert not best.greedy_is_best


def test_counterexample_json():
    payload = ce.construct(4).to_json_dict()
    assert payload["greedy_pair"] == ["4", "17"]
    assert payload["beating_pair"] == ["5", "9"]
    assert payload["margin"] == {"num": "7", "den": "3060"}


def test_fractional_claims_spot_values():
    # j = 1, s = 1 on the k = 4j+1 family
    x = Fraction((4 + 1) * ((4 + 1) * 7 + 1) * ((4 + 2) * 7 - 1), 11)
    assert x - x.numerator // x.denominator == Fraction(10, 11)
    # j = 12, s = 0 on the k = 4j+2 family
    x = Fraction(50 * (50 * 20 + 1) * (51 * 20 - 1), 101)
    assert x - x.numerator // x.denominator == Fraction(91, 101)
    # j = 6, s = 2 on the k = 4j+3 family
    x = Fraction(27 * (4 * 27 * 4 + 1) * (16 * 7 * 4 - 1), 55)
    assert x - x.numerator // x.denominator == Fraction(52, 55)


def test_fractional_claims_reports():
    for claim in ("cls1", "cls2", "cll5"):
        report = ce.check_fractional_claims(claim, 500)
        assert report.passed, claim
        assert report.failures == []
    with pytest.raises(DomainError):
        ce.check_fractional_claims("nope", 10)


def test_root_interval_reports():
    for case in (1, 2, 3):
        report = ce.check_root_interval(case, 40)
        assert report.passed, case
    with pytest.raises(DomainError):
        ce.check_root_interval(4, 10)


def test_root_interval_spot_endpoints():
    # case k = 4j+1 at s = 1: quadratic negative at j = 1 and j = 2
    assert 98 * 1 - 210 * 1 - 60 < 0
    assert 98 * 4 - 210 * 2 - 60 < 0
    # case k = 4j+3 at s = 2: negative at j = 6 and j = 11
    assert 256 * 36 - 2664 * 6 - 2145 < 0
    assert 256 * 121 - 2664 * 11 - 2145 < 0
    # case k = 4j+2 at s = 0: negative at j = 12 and j = 19
    assert 320 * 144 - 6048 * 12 - 3108 < 0
    assert 320 * 361 - 6048 * 19 - 3108 < 0
