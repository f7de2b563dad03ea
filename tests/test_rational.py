"""Canonical form and JSON encoding of the rationals the package writes."""

import random
from fractions import Fraction
from math import gcd

from egfrac import rational


def _random_rationals(count, seed, span=10**6):
    rng = random.Random(seed)
    for _ in range(count):
        num = rng.randint(-span, span)
        den = rng.randint(1, span) * rng.choice((1, -1))
        yield Fraction(num, den)


def test_canonical_form_preserved_by_arithmetic():
    # the JSON encoder writes numerator and denominator as they are, so
    # Fraction arithmetic must keep them canonical
    rng = random.Random(7)
    values = list(_random_rationals(200, seed=11))
    for _ in range(500):
        a, b = rng.choice(values), rng.choice(values)
        results = [a + b, a - b, a * b] + ([a / b] if b != 0 else [])
        for r in results:
            assert r.denominator > 0
            assert gcd(abs(r.numerator), r.denominator) == 1


def test_first_greedy_error_of_example():
    assert Fraction(5, 16) - Fraction(1, 4) == Fraction(1, 16)


def test_json_round_trip_bit_exact():
    cases = [
        Fraction(10, 17),
        Fraction(-3, 7),
        Fraction(0, 1),
        Fraction(10**200 + 7, 10**201 + 9),
    ]
    for x in cases:
        encoded = rational.to_json(x)
        assert encoded == {"num": str(x.numerator), "den": str(x.denominator)}
        back = Fraction(int(encoded["num"]), int(encoded["den"]))
        assert back.numerator == x.numerator and back.denominator == x.denominator
