"""Acceptance gate: every criterion exact, at its stated scale and runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. All checks are desk-scale exact computations; runtime
bounds are asserted where stated.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial, gcd

from egfrac import counterexamples, greedy, lemmas, underapprox
from oracles import naive_best_m_term, reduced_fractions


@contextmanager
def criterion(num, title):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL  {title}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {num:2d} PASS  {title}  [{elapsed:.2f}s]")


EXPANSION_1_7 = ["8", "57", "3193", "10192057", "103878015699193"]
SYLVESTER_8 = [
    "2", "3", "7", "43", "1807", "3263443", "10650056950807",
    "113423713055421844361000443",
]
EXPANSION_9_28 = [
    "4",
    "15",
    "211",
    "44311",
    "1963420411",
    "3855019708367988511",
    "14861176951905611184725545411860008611",
    "220854580395850552531842289089175529937535309395681309187277137641134140711",
    "48776745681827215201073590705821720129907215948452411133840819544687359"
    "97240857680148375403794922963882860912224317845389796211048815806159121"
    "3444811",
]


def test_criterion_1_expansion_fidelity():
    with criterion(1, "expansion digit fidelity for 1/7, 1, 9/28"):
        start = time.perf_counter()
        assert [str(t) for t in greedy.expand(Fraction(1, 7), 5).terms] == EXPANSION_1_7
        assert [str(t) for t in greedy.expand(Fraction(1), 8).terms] == SYLVESTER_8
        assert [str(t) for t in greedy.expand(Fraction(9, 28), 9).terms] == EXPANSION_9_28
        assert time.perf_counter() - start < 1.0


def test_criterion_2_two_term_threshold():
    with criterion(2, "two-term threshold over q <= 200 with single tie at 10/17"):
        start = time.perf_counter()
        rows = underapprox.threshold_sweep(200, jobs=1)
        for row in rows:
            p, q, ups, greedy_is_best, unique, ties, _ = row
            if ups > 3:
                continue
            assert greedy_is_best, row
            if (p, q) == (10, 17):
                assert not unique
                assert ties == ((3, 4),)
            else:
                assert unique, row
        assert time.perf_counter() - start < 30.0


def test_criterion_3_counterexample_factory():
    with criterion(3, "construct(k) beats greedy for every 4 <= k <= 200"):
        start = time.perf_counter()
        for k in range(4, 201):
            c = counterexamples.construct(k)  # verifies the strict sandwich exactly
            assert greedy.upsilon(c.p, c.q) == k
            assert c.q % k == 0
            assert c.margin > 0
        c4 = counterexamples.construct(4)
        assert (c4.p, c4.q) == (5, 16) and c4.beating_pair == (5, 9)
        assert time.perf_counter() - start < 10.0


def test_criterion_4_table_reproduction():
    with criterion(4, "suitability inequality on all 16 tabulated (k, v)"):
        report = counterexamples.verify_tables()
        assert report.points_checked == 16
        assert report.failures == []


def test_criterion_5_lemma_sweeps():
    with criterion(5, "floor-inequality sweeps at q_max = 500"):
        start = time.perf_counter()
        r1 = lemmas.verify_lp1(500, jobs=4)
        assert r1.failures == []
        r11 = lemmas.verify_lp11(500, jobs=4)
        assert r11.failures == [(17, 2), (61, 8)]
        assert r11.passed
        r50 = lemmas.verify_lp50(500, jobs=4)
        assert r50.failures == [(17, 2), (61, 8)]
        assert r50.passed
        r12 = lemmas.verify_lp12()
        assert r12.passed
        obs = r12.observations[0]
        assert obs["s"] == 155 and obs["equality"] is True and obs["floor_value"] == 7
        assert time.perf_counter() - start < 60.0


def test_criterion_6_step_equivalence():
    with criterion(6, "four step conditions agree on 1000 random reduced p/q"):
        rng = random.Random(20240927)
        checked = 0
        while checked < 1000:
            q = rng.randint(2, 10_000)
            p = rng.randint(1, q)
            if gcd(p, q) != 1:
                continue
            m = rng.randint(1, 3)
            n = rng.randint(1, 5)
            # step_report raises InvariantViolation on any disagreement
            report = greedy.step_report(Fraction(p, q), m, n)
            assert report.cond_i == report.cond_ii == report.cond_iii == report.cond_iv
            checked += 1


def test_criterion_7_delta_ell_contract():
    with criterion(7, "delta <= ell for q <= 500; 7/54 and factorial family exact"):
        for p, q in reduced_fractions(500):
            if (p, q) == (1, 1):
                continue
            assert greedy.delta_index(p, q) <= greedy.ell_index(p, q), (p, q)
        assert greedy.delta_index(7, 54) == 1
        assert (Fraction(7, 54) - Fraction(1, 8)) == Fraction(1, 216)
        # ell = 0 at p = 1, and the factorial family attains delta = ell for ell <= 3
        for n in (1, 2, 3):
            assert greedy.ell_index(1, n) == 0 == greedy.delta_index(1, n)
        for m in (0, 1, 2):
            for k in (1, 2, 3):
                p, q = m + 2, factorial(m + 2) * k + 1
                assert greedy.ell_index(p, q) == m + 1
                assert greedy.delta_index(p, q) == m + 1


def test_criterion_8_closed_forms_match_greedy():
    with criterion(8, "closed forms match the expansion for q <= 300, 4 terms"):
        family_counts = dict.fromkeys(
            (greedy.FAMILY_P_DIVIDES_Q_PLUS_1, greedy.FAMILY_UPSILON_DIVIDES_Q,
             greedy.FAMILY_UPSILON2_ODD_Q), 0
        )
        for p, q in reduced_fractions(300):
            ups = greedy.upsilon(p, q)
            if (q + 1) % p == 0:
                family = greedy.FAMILY_P_DIVIDES_Q_PLUS_1
            elif q % ups == 0:
                family = greedy.FAMILY_UPSILON_DIVIDES_Q
            elif q % 2 == 1 and ups == 2:
                family = greedy.FAMILY_UPSILON2_ODD_Q
            else:
                continue
            assert greedy.upsilon_profile(p, q).family == family, (p, q)
            assert greedy.closed_form(p, q, 4) == greedy.expand(Fraction(p, q), 4).terms
            family_counts[family] += 1
        assert all(count > 100 for count in family_counts.values()), family_counts


def test_criterion_9_best_m_term_families():
    with criterion(9, "greedy uniquely optimal for m <= 3 on both families, q <= 60"):
        start = time.perf_counter()
        checked = 0
        for p, q in reduced_fractions(60):
            ups = greedy.upsilon(p, q)
            if not ((q + 1) % p == 0 or (q % 2 == 1 and ups == 2)):
                continue
            theta = Fraction(p, q)
            for m in (1, 2, 3):
                result = underapprox.best_m_term(theta, m)
                assert result.greedy_is_best, (p, q, m)
                assert result.unique, (p, q, m)
                assert result.optimal_tuples == [tuple(result.greedy_terms)]
                checked += 1
        assert checked > 300
        assert time.perf_counter() - start < 120.0


def test_criterion_10_oracle_equivalence():
    with criterion(10, "branch-and-bound equals naive enumeration for q <= 40"):
        for p, q in reduced_fractions(40):
            for m in (1, 2, 3):
                result = underapprox.best_m_term(Fraction(p, q), m)
                oracle_sum, oracle_tuples = naive_best_m_term(p, q, m)
                assert result.optimal_sum == oracle_sum, (p, q, m)
                assert result.optimal_tuples == oracle_tuples, (p, q, m)
