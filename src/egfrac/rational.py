"""Decimal-string JSON encoding of exact rationals.

Every numeric path in this package runs on ``fractions.Fraction``, which
keeps the canonical form the encoding relies on: denominator > 0,
gcd(|num|, den) = 1, zero as 0/1. Denominators in greedy expansions grow
doubly exponentially (the ninth term of the expansion of 9/28 already
has ~150 digits), so both parts are written as decimal strings, never
as floating point.
"""

from __future__ import annotations

from fractions import Fraction


def to_json(x: Fraction) -> dict:
    """Encode as {"num": <decimal string>, "den": <decimal string>}."""
    return {"num": str(x.numerator), "den": str(x.denominator)}
