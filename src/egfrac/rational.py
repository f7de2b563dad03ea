"""Exact rational arithmetic carrier.

Denominators in greedy expansions grow doubly exponentially (the ninth
term of the expansion of 9/28 already has ~150 digits), so every numeric
path in this package runs on arbitrary-precision rationals. The carrier
is the stdlib ``fractions.Fraction``, which already maintains the
canonical form we rely on everywhere: denominator > 0, gcd(|num|, den) = 1,
zero as 0/1. This module adds the construction/validation surface and the
decimal-string JSON codec (never floating point; round-trips are
bit-exact).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError

Rational = Fraction


def make(p: int, q: int) -> Fraction:
    """Build the reduced rational p/q; the sign is carried on the numerator."""
    if q == 0:
        raise DomainError("denominator must be nonzero")
    return Fraction(p, q)


def floor_of_reciprocal(x: Fraction) -> int:
    """floor(1/x) for nonzero x.

    Python's floor division on the (always positive) denominator gives the
    exact floor for either sign of the numerator.
    """
    if x == 0:
        raise DomainError("reciprocal of zero")
    return x.denominator // x.numerator


def to_json(x: Fraction) -> dict:
    """Encode as {"num": <decimal string>, "den": <decimal string>}."""
    return {"num": str(x.numerator), "den": str(x.denominator)}


def from_json(obj: dict) -> Fraction:
    num = int(obj["num"])
    den = int(obj["den"])
    if den == 0:
        raise DomainError("denominator must be nonzero")
    return Fraction(num, den)
