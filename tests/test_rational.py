"""Construction, canonical form and codec checks for the rational carrier."""

import random
from fractions import Fraction
from math import gcd

import pytest

from egfrac import rational
from egfrac.errors import DomainError


def test_make_examples():
    assert rational.make(10, 17) == Fraction(10, 17)
    assert rational.make(2, 4) == Fraction(1, 2)
    assert rational.make(3, -6) == Fraction(-1, 2)
    assert rational.make(3, -6).denominator == 2
    assert rational.make(0, 5) == Fraction(0, 1)


def test_make_rejects_zero_denominator():
    with pytest.raises(DomainError):
        rational.make(1, 0)


def _random_rationals(count, seed, span=10**6):
    rng = random.Random(seed)
    for _ in range(count):
        num = rng.randint(-span, span)
        den = rng.randint(1, span) * rng.choice((1, -1))
        yield rational.make(num, den)


def test_canonical_form_preserved_by_arithmetic():
    # the JSON codec writes numerator and denominator as they are, so the
    # carrier's arithmetic must keep them canonical
    rng = random.Random(7)
    values = list(_random_rationals(200, seed=11))
    for _ in range(500):
        a, b = rng.choice(values), rng.choice(values)
        results = [a + b, a - b, a * b] + ([a / b] if b != 0 else [])
        for r in results:
            assert r.denominator > 0
            assert gcd(abs(r.numerator), r.denominator) == 1


def test_floor_of_reciprocal_examples():
    assert rational.floor_of_reciprocal(Fraction(5, 16)) == 3
    assert rational.floor_of_reciprocal(Fraction(1, 2)) == 2
    with pytest.raises(DomainError):
        rational.floor_of_reciprocal(Fraction(0, 1))


def test_floor_of_reciprocal_bracket():
    rng = random.Random(99)
    for _ in range(500):
        den = rng.randint(2, 10**6)
        num = rng.randint(1, den)
        x = Fraction(num, den)
        f = rational.floor_of_reciprocal(x)
        assert f * x <= 1 < (f + 1) * x


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
        assert isinstance(encoded["num"], str) and isinstance(encoded["den"], str)
        back = rational.from_json(encoded)
        assert back == x
        assert back.numerator == x.numerator and back.denominator == x.denominator


def test_json_rejects_zero_denominator():
    with pytest.raises(DomainError):
        rational.from_json({"num": "1", "den": "0"})
