"""Counterexample construction for every index k >= 4 and its certificates."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from egfrac import counterexamples as ce
from egfrac import cli, greedy, underapprox
from egfrac.errors import DomainError, InvariantViolation
from oracles import claimed_fractional_part, s5_holds
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
        _, first, _, _ = ce._BRACKETS[residue]
        assert first(s) <= j < first(s + 1)
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


def test_construct_checks_its_family_then_its_greedy_pair(monkeypatch):
    # the greedy pair is closed_form's, checked there against the expansion
    real = greedy.expand
    monkeypatch.setattr(
        greedy, "expand", lambda theta, m: real(theta, m)._replace(terms=[2] * m)
    )
    with pytest.raises(InvariantViolation):
        ce.construct(6)
    # a wrong divisibility index is construct's own check, and exits 6
    monkeypatch.setattr(ce, "upsilon", lambda p, q: 3)
    assert cli.main(["construct", "6"]) == cli.EXIT_INVARIANT


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


@pytest.mark.parametrize("claim", ["cls1", "cls2", "cll5"])
def test_claimed_remainders_are_the_fractional_parts_over_2k_plus_1(claim):
    residue, remainder_of = ce._CLAIMS[claim]
    s_min, first, _, _ = ce._BRACKETS[residue]
    for j in range(first(s_min), 3001):
        s, claimed, actual = claimed_fractional_part(claim, j)
        assert claimed == actual, (claim, j)
        assert remainder_of(j, s) == claimed * (8 * j + 2 * residue + 1), (claim, j)


def test_check_s5_agrees_with_the_fraction_quotient():
    for k in range(4, 301):
        for v in range(1, 61):
            assert ce.check_s5(k, v) == s5_holds(k, v), (k, v)
    for k, v in list(ce.TABLE_1.items()) + list(ce.TABLE_2.items()):
        assert ce.check_s5(k, v) and s5_holds(k, v), (k, v)
    for k in (10**16 + 1, 10**30 + 3, 4 * 10**20 + 2):
        v, _ = ce.select_v(k)
        assert ce.check_s5(k, v) and s5_holds(k, v), k
        assert ce.check_s5(k, v + 10**6) == s5_holds(k, v + 10**6), k


def _plain_verify(capsys, *argv):
    code = cli.main(["--format", "plain", "verify", *argv])
    return code, capsys.readouterr().out


def test_an_off_by_one_claim_fails_at_every_j(capsys, monkeypatch):
    residue, remainder_of = ce._CLAIMS["cls2"]
    monkeypatch.setitem(ce._CLAIMS, "cls2", (residue, lambda j, s: remainder_of(j, s) + 1))
    report = ce.check_fractional_claims("cls2", 40)
    assert report.failures == [(j, ce._bracket_s(2, j)) for j in range(12, 41)]
    assert report.points_checked == 29 and not report.passed
    code, out = _plain_verify(capsys, "claims", "--j-max", "40")
    assert code == cli.EXIT_VERIFY_FAILED
    assert "FAIL cls2: 29 points, 29 failure(s)" in out
    assert "  failure at (12, 0)\n" in out and "  failure at (40, 2)\n" in out
    assert "PASS cls1" in out and "PASS cll5" in out


@pytest.mark.parametrize("claim", ["cls1", "cls2", "cll5"])
def test_each_reported_j_has_the_s_of_bracket_s(monkeypatch, claim):
    # a claim that fails everywhere reports every (j, s) it checked, in order
    residue, _ = ce._CLAIMS[claim]
    monkeypatch.setitem(ce._CLAIMS, claim, (residue, lambda j, s: -1))
    report = ce.check_fractional_claims(claim, 5000)
    s_min, first, _, _ = ce._BRACKETS[residue]
    assert report.failures == [(j, ce._bracket_s(residue, j)) for j in range(first(s_min), 5001)]


@pytest.mark.parametrize("residue", [1, 2, 3])
def test_bracket_s_is_the_oracle_s(residue):
    s_min, first, _, _ = ce._BRACKETS[residue]
    for j in range(first(s_min), 10**5 + 1):
        assert ce._bracket_s(residue, j) == oracle_select_v(4 * j + residue)[1], j
    for s in (10**6, 10**30):
        # the last j of bracket s - 1, then the first of bracket s
        for j, expected in ((first(s) - 1, s - 1), (first(s), s)):
            assert ce._bracket_s(residue, j) == oracle_select_v(4 * j + residue)[1] == expected


@pytest.mark.parametrize("residue", [1, 2, 3])
def test_an_off_by_one_inverse_is_an_invariant_violation(capsys, monkeypatch, residue):
    s_min, first, s_of, v_of = ce._BRACKETS[residue]
    monkeypatch.setitem(ce._BRACKETS, residue, (s_min, first, lambda j: s_of(j) + 1, v_of))
    k = 4 * 100 + residue
    with pytest.raises(InvariantViolation, match="bracket rule misses j = 100"):
        ce.select_v(k)
    assert cli.main(["construct", str(k)]) == cli.EXIT_INVARIANT
    assert capsys.readouterr() == ("", "invariant violation: bracket rule misses j = 100\n")


def test_brackets_that_do_not_tile_are_an_invariant_violation(capsys, monkeypatch):
    # bracket 5 of cls1 starts past bracket 6, so no j is checked at s = 5
    # and j = first(6) = 21 is checked twice, at s = 4 and at s = 6
    s_min, first, s_of, v_of = ce._BRACKETS[1]

    def out_of_order(s):
        return first(6) + 1 if s == 5 else first(s)

    monkeypatch.setitem(ce._BRACKETS, 1, (s_min, out_of_order, s_of, v_of))
    with pytest.raises(InvariantViolation, match="do not tile"):
        ce.check_fractional_claims("cls1", 500)
    assert cli.main(["verify", "claims"]) == cli.EXIT_INVARIANT
    assert capsys.readouterr() == (
        "", "invariant violation: the brackets of cls1 do not tile 1 <= j <= 500\n")


def test_a_negated_root_quadratic_fails_at_every_endpoint(capsys, monkeypatch):
    coeffs = ce._ROOT_COEFFS[3]
    monkeypatch.setitem(ce._ROOT_COEFFS, 3, lambda s: tuple(-c for c in coeffs(s)))
    report = ce.check_root_interval(3, 9)
    _, first, _, _ = ce._BRACKETS[3]
    assert report.failures == [
        (s, j) for s in range(2, 10) for j in (first(s), first(s + 1) - 1)
    ]
    assert report.points_checked == 16
    code, out = _plain_verify(capsys, "roots", "--s-max", "9")
    assert code == cli.EXIT_VERIFY_FAILED
    assert "FAIL roots-case3: 16 points, 16 failure(s)" in out
    assert "PASS roots-case1" in out and "PASS roots-case2" in out


def test_a_failing_table_entry_is_reported(capsys, monkeypatch):
    real = ce.check_s5
    monkeypatch.setattr(ce, "check_s5", lambda k, v: (k, v) != (6, 8) and real(k, v))
    report = ce.verify_tables()
    assert report.failures == [(6, 8)] and report.points_checked == 16
    code = cli.main(["verify", "tables"])
    assert code == cli.EXIT_VERIFY_FAILED
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == [[6, 8]] and payload["passed"] is False
