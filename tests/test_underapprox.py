"""Best two-term / m-term searches and the threshold sweep."""

import multiprocessing
import random
import time
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import mul

import pytest

from egfrac import _backend, counterexamples, underapprox
from egfrac.errors import DomainError, SearchInconclusive
from oracles import (
    branch_and_bound_m_term,
    greedy_prefix,
    naive_best_m_term,
    reduced_fractions,
)

SYLVESTER = (2, 3, 7, 43, 1807, 3263443)


def _two_term(p, q):
    """The kernel's best two-term sum and pairs for p/q, with no incumbent."""
    e_num, e_den, pairs, _, _, done = _backend.two_term_scan(p, q, q // p + 1, p, q)
    assert done
    return Fraction(p, q) - Fraction(e_num, e_den), pairs


def test_best_two_term_greedy_loses_at_5_16():
    r = underapprox.best_m_term(Fraction(5, 16), 2)
    assert r.greedy_terms == [4, 17]
    assert r.optimal_tuples == [(5, 9)]
    assert r.optimal_sum == Fraction(1, 5) + Fraction(1, 9)
    assert not r.greedy_is_best
    assert r.unique


def test_best_two_term_tie_at_10_17():
    r = underapprox.best_m_term(Fraction(10, 17), 2)
    assert r.optimal_tuples == [(2, 12), (3, 4)]
    assert r.greedy_is_best
    assert not r.unique


def test_best_two_term_unique_at_3_7():
    r = underapprox.best_m_term(Fraction(3, 7), 2)
    assert r.optimal_tuples == [(3, 11)]
    assert r.greedy_is_best and r.unique


def test_best_two_term_domain():
    with pytest.raises(DomainError):
        underapprox.best_m_term(Fraction(3, 2), 2)


def test_best_m_term_matches_two_term_search():
    for p, q in [(10, 17), (5, 16), (3, 7), (8, 61), (1, 1)]:
        b = underapprox.best_m_term(Fraction(p, q), 2)
        assert _two_term(p, q) == (b.optimal_sum, b.optimal_tuples)


def test_two_term_scan_matches_best_m_term_on_every_fraction():
    # the sweep's call starts with no incumbent, best_m_term's with the
    # greedy pair's error; both must give the same optimum and tie set
    for p, q in reduced_fractions(150):
        b = underapprox.best_m_term(Fraction(p, q), 2)
        assert _two_term(p, q) == (b.optimal_sum, b.optimal_tuples), (p, q)


def test_best_m_term_m1_is_greedy_singleton():
    rng = random.Random(8)
    for _ in range(50):
        q = rng.randint(2, 300)
        p = rng.randint(1, q)
        r = underapprox.best_m_term(Fraction(p, q), 1)
        assert r.optimal_tuples == [tuple(r.greedy_terms)]
        assert r.unique and r.greedy_is_best


def test_best_m_term_known_families():
    # odd q with upsilon 2: greedy is the unique optimum
    r = underapprox.best_m_term(Fraction(5, 13), 3)
    assert r.optimal_tuples == [(3, 20, 781)]
    assert r.greedy_is_best and r.unique
    # p | q + 1: same
    r = underapprox.best_m_term(Fraction(2, 5), 3)
    assert r.optimal_tuples == [(3, 16, 241)]
    assert r.greedy_is_best and r.unique


def test_best_m_term_budget_is_typed():
    with pytest.raises(SearchInconclusive):
        underapprox.best_m_term(Fraction(5, 16), 3, budget=2)


def test_best_m_term_against_naive_enumeration():
    for p, q in reduced_fractions(60):
        for m in (1, 2, 3):
            result = underapprox.best_m_term(Fraction(p, q), m)
            oracle_sum, oracle_tuples = naive_best_m_term(p, q, m)
            assert result.optimal_sum == oracle_sum, (p, q, m)
            assert result.optimal_tuples == oracle_tuples, (p, q, m)


def test_result_tuples_share_the_optimal_sum():
    for p, q in [(5, 16), (10, 17), (7, 54), (11, 24), (1, 1)]:
        theta = Fraction(p, q)
        for m in (2, 3):
            r = underapprox.best_m_term(theta, m)
            for tup in r.optimal_tuples:
                total = sum(Fraction(1, x) for x in tup)
                assert total == r.optimal_sum < theta
                assert list(tup) == sorted(tup)
            assert len(set(r.optimal_tuples)) == len(r.optimal_tuples)
            assert r.optimal_sum >= r.greedy_sum


def test_greedy_sum_is_the_sum_of_the_greedy_terms():
    for p, q in reduced_fractions(40):
        for m in (1, 2, 3, 4):
            r = underapprox.best_m_term(Fraction(p, q), m)
            assert r.greedy_sum == sum(Fraction(1, a) for a in r.greedy_terms), (p, q, m)
            assert r.greedy_is_best == (r.optimal_sum == r.greedy_sum), (p, q, m)


def test_closing_term_is_exact_and_above_the_error_floor():
    rng = random.Random(6)
    for _ in range(2000):
        b = rng.randint(2, 500)
        a = rng.randint(1, b)
        g = gcd(a, b)
        a, b = a // g, b // g
        x = b // a + 1 + rng.choice((0, 1, 2, rng.randint(0, 10**4)))
        # with no incumbent and cap = x, the scan takes exactly the pair at x
        num, den, pairs, stop, _, _ = _backend.two_term_scan(a, b, x, a, b, x)
        [(x1, y)] = pairs
        assert x1 == x and stop == x + 1
        error = Fraction(a, b) - Fraction(1, x) - Fraction(1, y)
        assert error == Fraction(num, den) > 0
        assert y >= x and (y == x or Fraction(1, y - 1) >= Fraction(a, b) - Fraction(1, x))
        d = a * x - b
        if y > x:  # the unconstrained best partner: the closed form of its error
            assert error == Fraction(d - (b * x) % d, b * x * y)
        g = Fraction(b * b * x * x, d) + b * x
        assert error * g >= 1
        # the error floor never closes the range at an x whose pair ties
        assert _backend.two_term_scan(a, b, x, num, den, x)[:3] == (num, den, [(x, y)])
        # and it closes at once a range no pair can reach: every error is > 0
        upper = 2 * b // a
        if x <= upper:
            assert _backend.two_term_scan(a, b, x, 0, 1, x) == (0, 1, [], x, upper - x + 1, True)


def test_best_m_term_of_one_is_sylvester():
    # Curtiss (1922): the greedy (Sylvester) terms are the unique best
    # m-term underapproximation of 1
    for m in range(1, 7):
        r = underapprox.best_m_term(Fraction(1), m)
        assert r.optimal_tuples == [SYLVESTER[:m]]
        assert r.greedy_is_best and r.unique


def test_best_m_term_at_m5():
    r = underapprox.best_m_term(Fraction(10, 17), 5)
    assert r.optimal_tuples == [(2, 12, 205, 41821, 1748954221), (3, 4, 205, 41821, 1748954221)]
    assert r.greedy_is_best and not r.unique
    r = underapprox.best_m_term(Fraction(5, 16), 5)
    assert r.greedy_terms == [4, 17, 273, 74257, 5514027793]
    assert r.optimal_tuples == [(5, 9, 721, 519121, 269486093521)]
    assert not r.greedy_is_best and r.unique


def test_best_m_term_matches_plain_branch_and_bound_at_m4():
    rng = random.Random(2024)
    decided = not_greedy = 0
    for _ in range(60):
        q = rng.randint(2, 30)
        p = rng.randint(1, q - 1)
        oracle = branch_and_bound_m_term(p, q, 4, budget=10_000)
        if oracle is None:
            continue
        r = underapprox.best_m_term(Fraction(p, q), 4)
        assert (r.optimal_sum, r.optimal_tuples) == oracle, (p, q)
        decided += 1
        not_greedy += not (r.greedy_is_best and r.unique)
    assert decided >= 40 and not_greedy >= 2


def test_search_effort_is_reported_outside_the_answer():
    r = underapprox.best_m_term(Fraction(10, 17), 5)
    assert len(r.nodes_per_level) == len(r.pruned_per_level) == 4
    assert all(n > 0 for n in r.nodes_per_level)
    assert r.pruned_per_level[:3] == (0, 0, 0) and r.pruned_per_level[3] > 0
    assert "nodes_per_level" not in r.to_json_dict()
    assert "pruned_per_level" not in r.to_json_dict()
    assert underapprox.best_m_term(Fraction(10, 17), 1).nodes_per_level == ()


@pytest.mark.parametrize(
    "p, q, m, nodes, pruned",
    [
        (10, 17, 5, (7, 67, 2322, 2), (0, 0, 0, 823951)),
        (5, 16, 5, (13, 171, 7296, 2), (0, 0, 0, 6866641)),
        (1, 1, 5, (4, 13, 51, 1), (0, 0, 0, 327)),
        (4, 31, 4, (24, 1084, 1), (0, 0, 554352)),
        (11, 24, 4, (6, 43, 2), (0, 0, 585)),
        (7, 54, 3, (16, 1), (0, 459)),
        (5, 16, 3, (6, 2), (0, 39)),
    ],
)
def test_search_effort_is_pinned(p, q, m, nodes, pruned):
    r = underapprox.best_m_term(Fraction(p, q), m)
    assert (r.nodes_per_level, r.pruned_per_level) == (nodes, pruned)
    # the exact node count is the least budget that decides the search
    assert underapprox.best_m_term(Fraction(p, q), m, budget=sum(nodes)) == r
    with pytest.raises(SearchInconclusive, match=f"after {sum(nodes)} nodes"):
        underapprox.best_m_term(Fraction(p, q), m, budget=sum(nodes) - 1)


def test_every_nongreedy_competitor_passes_na23_bounds():
    # competitors: non-greedy optimal pairs (ties or wins) found by full
    # search; each must satisfy, with (a1, a2) the greedy pair,
    # a1+1 <= x1 <= 2*a1-1 <= x2 < a1*x1/(x1-a1) and x2 <= a2-1
    seen = 0
    for p, q in reduced_fractions(60):
        r = underapprox.best_m_term(Fraction(p, q), 2)
        a1, a2 = greedy_prefix(p, q, 2)[0]
        for x1, x2 in r.optimal_tuples:
            if (x1, x2) == (a1, a2):
                continue
            seen += 1
            assert a1 + 1 <= x1 <= 2 * a1 - 1 <= x2, (p, q, x1, x2)
            assert x2 * (x1 - a1) < a1 * x1 and x2 <= a2 - 1, (p, q, x1, x2)
    assert seen > 10  # the interval test actually got exercised


def _prefix_products_dominate(x, a):
    """Every prefix product of a is <= the corresponding one of x."""
    return all(pa <= px for px, pa in zip(accumulate(x, mul), accumulate(a, mul)))


def test_muirhead_certificate_random_pairs():
    # prefix-product domination of a by x, for distinct nondecreasing
    # tuples of one length, implies sum(1/x) < sum(1/a)
    assert _prefix_products_dominate((2, 3, 8), (2, 3, 7))
    assert not _prefix_products_dominate((5, 9), (4, 17))
    rng = random.Random(424)
    holds = 0
    for _ in range(10_000):
        length = rng.randint(1, 5)
        a = sorted(rng.randint(1, 30) for _ in range(length))
        if rng.random() < 0.5:
            # dominating partner: raise some entries so prefix products dominate
            x = [ai + rng.randint(0, 3) for ai in a]
            x.sort()
        else:
            x = sorted(rng.randint(1, 30) for _ in range(length))
        if tuple(x) == tuple(a):
            continue
        if _prefix_products_dominate(x, a):
            holds += 1
            assert sum(Fraction(1, t) for t in x) < sum(Fraction(1, t) for t in a), (x, a)
    assert holds > 1000


def test_threshold_sweep_rows_and_flags():
    rows = underapprox.threshold_sweep(61)
    by_pq = {(r[0], r[1]): r for r in rows}
    # 8/61, behind the lemmas' exceptional pair (61, 8): greedy uniquely best
    assert by_pq[(8, 61)] == (8, 61, 3, True, True, (), ())
    _, _, _, greedy_is_best, unique, ties, _ = by_pq[(10, 17)]
    assert greedy_is_best and not unique
    assert ties == ((3, 4),)
    _, _, ups, greedy_is_best, _, _, losses = by_pq[(5, 16)]
    assert not greedy_is_best
    assert losses == ((5, 9),)
    assert ups == 4


def test_threshold_rows_are_plain_tuples_serial_and_pooled():
    serial = list(underapprox.threshold_sweep(90))
    pooled = list(underapprox.threshold_sweep(90, jobs=2))
    for rows in (serial, pooled):
        for row in rows:
            assert type(row) is tuple and len(row) == 7
            for pairs in row[5:]:
                assert type(pairs) is tuple
                for pair in pairs:
                    assert type(pair) is tuple and len(pair) == 2
                    assert all(type(x) is int for x in pair)
        by_pq = {(r[0], r[1]): r for r in rows}
        assert by_pq[(10, 17)][5] == ((3, 4),)
        assert by_pq[(5, 16)][6] == ((5, 9),)
    assert serial == pooled


def test_verify_threshold_sweep_small():
    report = underapprox.verify_threshold_rows(underapprox.threshold_sweep(30), 30)
    assert report.passed
    assert report.failures == []
    ties = [o for o in report.observations if o["kind"] == "tie"]
    assert [(o["p"], o["q"]) for o in ties] == [(10, 17)]
    losses = [(o["p"], o["q"]) for o in report.observations if o["kind"] == "loss"]
    assert (5, 16) in losses


def test_constructed_losses_are_the_construct_fractions():
    # construct(k).q >= k^2, so k < 45 covers q <= 2000
    built = [counterexamples.construct(k) for k in range(4, 45)]
    expected = {(ce.p, ce.q) for ce in built if ce.q <= 2000}
    assert len(expected) == 18
    assert underapprox._constructed_losses(2000) == expected
    assert underapprox._constructed_losses(15) == set()
    assert underapprox._constructed_losses(16) == {(5, 16)}


def test_threshold_sweep_parallel_matches_serial():
    assert list(underapprox.threshold_sweep(40, jobs=2)) == list(underapprox.threshold_sweep(40))


def test_threshold_sweep_checks_arguments_before_iteration():
    with pytest.raises(DomainError):
        underapprox.threshold_sweep(1)
    with pytest.raises(DomainError):
        underapprox.threshold_sweep(40, jobs=0)


def test_threshold_sweep_closed_early_cancels_pending_chunks():
    # the full sweep to q = 3000 takes tens of seconds on two workers
    rows = underapprox.threshold_sweep(3000, jobs=2)
    first = [row for _, row in zip(range(5), rows)]
    assert [(r[0], r[1]) for r in first] == [(1, 2), (1, 3), (2, 3), (1, 4), (3, 4)]
    start = time.perf_counter()
    rows.close()
    assert time.perf_counter() - start < 5.0
    assert multiprocessing.active_children() == []
