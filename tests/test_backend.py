"""The sweep kernels: the two-term scan against the static-range oracle."""

import random
from fractions import Fraction
from math import gcd

from egfrac import _backend

from oracles import reduced_fractions, two_term_scan


def scan(p, q):
    """The kernel's optimal sum and pairs for p/q as the oracle gives them."""
    e_num, e_den, pairs, _, _, done = _backend.two_term_scan(p, q, q // p + 1, p, q)
    assert done
    best = Fraction(p, q) - Fraction(e_num, e_den)
    return best.numerator, best.denominator, pairs


def test_backend_name_reports_selection():
    assert _backend.backend_name() == "pure"


def test_two_term_scan_matches_oracle_on_every_fraction():
    for p, q in reduced_fractions(300):
        assert scan(p, q) == two_term_scan(p, q)[2:], (p, q)


def test_two_term_scan_matches_oracle_on_seeded_large_fractions():
    # p uniform in [1, q) keeps q/p, and so the oracle's range, small
    rng = random.Random(7)
    for _ in range(2000):
        q = rng.randint(2, 10**12)
        p = rng.randint(1, q - 1)
        g = gcd(p, q)
        assert scan(p // g, q // g) == two_term_scan(p // g, q // g)[2:]


def test_two_term_scan_matches_oracle_near_1e40():
    q = 10**40 + 1
    for p in (q // 2 - 1, q // 3 + 7, 2 * q // 5 + 3, q // 7 + 2, q // 41 + 10**20):
        g = gcd(p, q)
        assert scan(p // g, q // g) == two_term_scan(p // g, q // g)[2:], p
    # upsilon(1, q) = 1, so greedy is the unique best; the oracle would
    # try about q values of x1 here, the kernel closes its range at once
    a1, a2 = q + 1, q * (q + 1) + 1
    e_num, e_den, pairs, stop, pruned, done = _backend.two_term_scan(1, q, a1, 1, q)
    assert pairs == [(a1, a2)]
    assert Fraction(e_num, e_den) == Fraction(1, q) - Fraction(1, a1) - Fraction(1, a2)
    assert (stop, done) == (a1 + 1, True) and pruned == q - 1
