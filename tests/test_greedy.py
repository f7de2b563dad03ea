"""Greedy expansion, step analysis, and closed-form family checks."""

import random
import time
from fractions import Fraction
from math import factorial, gcd

import pytest

from egfrac import greedy
from egfrac.errors import DigitGuardExceeded, DomainError, InvariantViolation
from oracles import brute_force_superior_denominator, reduced_fractions

SYLVESTER_8 = [2, 3, 7, 43, 1807, 3263443, 10650056950807, 113423713055421844361000443]


def test_g_func_examples():
    assert greedy.g_func(Fraction(1)) == 2
    assert greedy.g_func(Fraction(5, 16)) == 4
    assert greedy.g_func(Fraction(1, 2)) == 3


@pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1, 2), Fraction(3, 2)])
def test_g_func_domain(bad):
    with pytest.raises(DomainError):
        greedy.g_func(bad)


def test_g_func_bracket_random():
    rng = random.Random(17)
    for _ in range(300):
        q = rng.randint(2, 10**6)
        p = rng.randint(1, q)
        theta = Fraction(p, q)
        g = greedy.g_func(theta)
        assert Fraction(1, g) < theta <= Fraction(1, g - 1)


def test_expand_examples():
    assert greedy.expand(Fraction(1, 7), 5).terms == [8, 57, 3193, 10192057, 103878015699193]
    assert greedy.expand(Fraction(1), 4).terms == [2, 3, 7, 43]
    assert greedy.expand(Fraction(9, 28), 5).terms == [4, 15, 211, 44311, 1963420411]


def test_expand_error_is_exact_and_bounded():
    for p, q in [(1, 7), (9, 28), (7, 54), (10, 17), (1, 1)]:
        for m in (1, 2, 4):
            exp = greedy.expand(Fraction(p, q), m)
            total = sum(Fraction(1, a) for a in exp.terms)
            assert exp.error == Fraction(p, q) - total
            assert exp.error > 0
            assert exp.error <= Fraction(1, exp.terms[-1] - 1)


def test_expand_term_growth_inequality():
    # a_1 >= 2 and a_{n+1} >= a_n^2 - a_n + 1 along every expansion
    for p, q in reduced_fractions(25):
        terms = greedy.expand(Fraction(p, q), 4).terms
        assert terms[0] >= 2
        for a, b in zip(terms, terms[1:]):
            assert b >= a * a - a + 1


def test_sylvester_product_identity():
    terms = greedy.expand(Fraction(1), 8).terms
    assert terms == SYLVESTER_8
    prod = 1
    for i, a in enumerate(terms[:-1]):
        prod *= a
        assert terms[i + 1] == prod + 1


def test_expand_digit_guard():
    # the 8th denominator of 9/28 has 76 digits
    with pytest.raises(DigitGuardExceeded):
        greedy.expand(Fraction(9, 28), 9, digit_guard=50)
    exp = greedy.expand(Fraction(9, 28), 9, digit_guard=200)
    assert len(str(exp.terms[-1])) == 149


@pytest.mark.parametrize("guard", [1, 2, 3, 9, 10, 11, 100, 1001, 10_000])
def test_expand_digit_guard_boundary(guard):
    # 1/(n - 1) has first term n: 10**g - 1 has g digits, 10**g has g + 1
    limit = 10**guard
    assert greedy.expand(Fraction(1, limit - 2), 1, digit_guard=guard).terms == [limit - 1]
    with pytest.raises(DigitGuardExceeded):
        greedy.expand(Fraction(1, limit - 1), 1, digit_guard=guard)
    # the largest power of two below 10**g, where the bit-length test stops deciding
    top = 1 << (limit.bit_length() - 1)
    assert greedy.expand(Fraction(1, top - 1), 1, digit_guard=guard).terms == [top]


def test_expansion_json_round_trip():
    exp = greedy.expand(Fraction(9, 28), 6)
    payload = exp.to_json_dict()
    assert payload["terms"] == [str(t) for t in exp.terms]
    assert payload["recurrence_start"] == 2
    assert payload["error"]["num"] == "1"


def test_upsilon_examples():
    assert greedy.upsilon(10, 17) == 3
    for q in (1, 2, 17, 54, 1000):
        assert greedy.upsilon(1, q) == 1
    for k in (4, 5, 9):
        for v in (1, 2, 3):
            assert greedy.upsilon(k + 1, (k + 1) * k * v - k) == k


def test_upsilon_divides_and_is_minimal():
    rng = random.Random(5)
    for _ in range(300):
        p = rng.randint(1, 400)
        q = rng.randint(1, 4000)
        u = greedy.upsilon(p, q)
        assert 1 <= u <= p
        assert (q + u) % p == 0
        assert all((q + j) % p != 0 for j in range(1, u))


def test_ell_index_examples():
    assert greedy.ell_index(1, 7) == 0
    assert greedy.ell_index(7, 54) == 2
    for k in (1, 3, 10):
        assert greedy.ell_index(2, 2 * k + 1) == 1
    with pytest.raises(DomainError):
        greedy.ell_index(2, 4)


def test_delta_examples():
    assert greedy.delta_index(7, 54) == 1
    # the intermediate value: (7/54 - 1/8)^{-1} = 216
    e1 = Fraction(7, 54) - Fraction(1, 8)
    assert e1 == Fraction(1, 216)
    for n in (1, 2, 7, 54):
        assert greedy.delta_index(1, n) == 0


def test_delta_attains_ell_on_factorial_family():
    for m in (0, 1, 2):
        for k in (1, 2, 3):
            p = m + 2
            q = factorial(m + 2) * k + 1
            assert greedy.ell_index(p, q) == m + 1
            assert greedy.delta_index(p, q) == m + 1


def test_delta_at_most_ell():
    for p, q in reduced_fractions(120):
        if (p, q) == (1, 1):
            continue
        assert greedy.delta_index(p, q) <= greedy.ell_index(p, q)


def test_phi_examples():
    assert greedy.phi(Fraction(1)) == 1
    for n in (2, 3, 10, 97):
        assert greedy.phi(Fraction(1, n)) == 1
    assert greedy.phi(Fraction(2, 3)) == 2


def test_phi_at_least_one_random():
    rng = random.Random(31)
    for _ in range(300):
        q = rng.randint(2, 10**5)
        p = rng.randint(1, q)
        assert greedy.phi(Fraction(p, q)) >= 1


def test_superior_denominator_examples():
    assert greedy.superior_denominator(Fraction(1), 2) == 3
    assert greedy.superior_denominator(Fraction(1, 16), 2) == 33
    assert greedy.superior_denominator(Fraction(1, 16), 2) == brute_force_superior_denominator(
        Fraction(1, 16), 2
    )


def test_superior_denominator_brackets_and_n1_degeneracy():
    rng = random.Random(13)
    for _ in range(300):
        q = rng.randint(2, 10**4)
        p = rng.randint(1, q)
        e = Fraction(p, q)
        n = rng.randint(1, 6)
        b = greedy.superior_denominator(e, n)
        assert Fraction(n, b) < e
        assert b == 1 or e <= Fraction(n, b - 1)
        assert greedy.superior_denominator(e, 1) == greedy.g_func(e)


def test_step_report_examples():
    all_false = greedy.step_report(Fraction(1), 1, 2)
    assert not any([all_false.cond_i, all_false.cond_ii, all_false.cond_iii, all_false.cond_iv])

    # 1/7 at m = 1, N = 2: a_2 = 57 < 2*64 - 8 + 1 = 121, so everything fails
    r = greedy.step_report(Fraction(1, 7), 1, 2)
    assert not r.holds
    assert r.a_m == 8 and r.b_m == 15

    # N = 1 is the plain growth inequality, which greedy always satisfies
    rng = random.Random(3)
    for _ in range(50):
        q = rng.randint(2, 500)
        p = rng.randint(1, q)
        m = rng.randint(1, 3)
        assert greedy.step_report(Fraction(p, q), m, 1).holds


def test_step_conditions_always_agree():
    # step_report raises InvariantViolation on any disagreement;
    # this box exercises it across all four condition outcomes
    rng = random.Random(2024)
    for _ in range(250):
        q = rng.randint(2, 2000)
        p = rng.randint(1, q)
        g = gcd(p, q)
        report = greedy.step_report(Fraction(p // g, q // g), rng.randint(1, 3), rng.randint(1, 5))
        assert report.cond_i == report.cond_ii == report.cond_iii == report.cond_iv


def test_upsilon_profile_families():
    prof = greedy.upsilon_profile(7, 54)
    assert (prof.upsilon, prof.ell, prof.delta) == (2, 2, 1)
    assert prof.family == greedy.FAMILY_UPSILON_DIVIDES_Q

    assert greedy.upsilon_profile(5, 7).family == greedy.FAMILY_GENERAL
    assert greedy.upsilon_profile(1, 6).family == greedy.FAMILY_P_DIVIDES_Q_PLUS_1
    assert greedy.upsilon_profile(5, 13).family == greedy.FAMILY_UPSILON2_ODD_Q
    # non-reduced input is reduced first and echoed
    assert greedy.upsilon_profile(2, 4).p == 1


def test_upsilon_profile_invariants():
    for p, q in reduced_fractions(60):
        prof = greedy.upsilon_profile(p, q)
        assert (prof.q + prof.upsilon) % prof.p == 0
        assert all((prof.q + j) % prof.p != 0 for j in range(1, prof.upsilon))
        if prof.p == 1:
            assert prof.ell == 0
        else:
            assert prof.ell == prof.upsilon
        assert prof.delta <= prof.ell


def test_closed_form_upsilon_divides_q():
    assert greedy.upsilon_profile(3, 10).family == greedy.FAMILY_UPSILON_DIVIDES_Q
    assert greedy.closed_form(3, 10, 3) == [4, 21, 421]
    assert greedy.closed_form(5, 9, 2) == [2, 19]
    for q in (3, 7, 20):
        assert greedy.closed_form(1, q, 2) == [q + 1, q * (q + 1) + 1]
    # non-reduced input is reduced first
    assert greedy.closed_form(6, 20, 3) == [4, 21, 421]
    with pytest.raises(DomainError):
        greedy.closed_form(5, 7, 2)  # General: upsilon = 3 does not divide 7
    with pytest.raises(DomainError):
        greedy.closed_form(3, 10, 0)
    with pytest.raises(DomainError):
        greedy.closed_form(7, 5, 2)


def test_closed_form_of_a_general_fraction_fails_before_any_expansion():
    # delta of this fraction needs a denominator of over 10,000 digits;
    # closed_form must not walk the expansion to find a family it has
    start = time.perf_counter()
    with pytest.raises(DomainError, match="no closed form"):
        greedy.closed_form(5699019327528187958238481272, 289310727873549501811999755421, 2)
    assert time.perf_counter() - start < 1.0


def test_closed_form_upsilon2_odd_q():
    assert greedy.upsilon_profile(5, 13).family == greedy.FAMILY_UPSILON2_ODD_Q
    assert greedy.closed_form(5, 13, 3) == [3, 20, 781]
    assert greedy.closed_form(3, 7, 3) == [3, 11, 232]
    assert greedy.closed_form(3, 7, 1) == [3]
    # even q and upsilon = 1 fall in other families, not this one
    assert greedy.upsilon_profile(3, 10).family != greedy.FAMILY_UPSILON2_ODD_Q
    assert greedy.upsilon_profile(1, 7).family != greedy.FAMILY_UPSILON2_ODD_Q


def test_closed_form_upsilon2_second_term_parity():
    # a_2 - 1 = floor(q*a_1/2) with q*a_1 odd on the whole family
    for p, q in reduced_fractions(80):
        if q % 2 == 0 or q < 3 or greedy.upsilon(p, q) != 2:
            continue
        a1, a2 = greedy.closed_form(p, q, 2)
        assert (q * a1) % 2 == 1
        assert a2 - 1 == (q * a1) // 2


def test_closed_form_p_divides_q_plus_1():
    assert greedy.upsilon_profile(2, 5).family == greedy.FAMILY_P_DIVIDES_Q_PLUS_1
    assert greedy.closed_form(2, 5, 3) == [3, 16, 241]
    # p = 1 follows the quadratic recurrence
    assert greedy.closed_form(1, 1, 4) == [2, 3, 7, 43]
    assert greedy.closed_form(1, 6, 3) == [7, 43, 1807]
    assert greedy.upsilon_profile(3, 7).family != greedy.FAMILY_P_DIVIDES_Q_PLUS_1


def test_closed_forms_match_expansion_small_sweep():
    for p, q in reduced_fractions(60):
        if greedy.upsilon_profile(p, q).family != greedy.FAMILY_GENERAL:
            greedy.closed_form(p, q, 4)  # self-checks against expand


def test_closed_form_checks_the_expansion(monkeypatch):
    # a closed form that disagrees with greedy is a bug, never an answer
    real = greedy.expand
    monkeypatch.setattr(
        greedy, "expand", lambda theta, m: real(theta, m)._replace(terms=[2] * m)
    )
    with pytest.raises(InvariantViolation):
        greedy.closed_form(3, 10, 3)


def test_eventual_quadratic_recurrence():
    # observed start indices: at most delta + 1, where the error becomes 1/n
    assert greedy.expand(Fraction(9, 28), 9).recurrence_start == 2
    assert greedy.expand(Fraction(1, 7), 5).recurrence_start == 1
    assert greedy.expand(Fraction(7, 54), 6).recurrence_start == 2
    assert [greedy.delta_index(p, q) for p, q in [(9, 28), (1, 7), (7, 54)]] == [1, 0, 1]


def test_eventual_quadratic_recurrence_sweep():
    # after delta steps the error is 1/n, whose terms n+1, n^2+n+1, ... follow
    # a_{j+1} = a_j^2 - a_j + 1; two pairs past delta keep the digits small
    for p, q in reduced_fractions(40):
        delta = greedy.delta_index(p, q)
        start = greedy.expand(Fraction(p, q), delta + 3).recurrence_start
        assert start is not None and start <= delta + 1, (p, q)
