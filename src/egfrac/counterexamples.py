"""Constructive witnesses that greedy fails the two-term test for every
divisibility index k >= 4.

For k >= 4 take p = k+1 and q = (k+1)kv - k, which forces
upsilon(p, q) = k and k | q. The greedy pair of p/q is
(kv, kv((k+1)v - 1) + 1); bumping the first denominator by one and
re-optimizing the partner yields (kv + 1, floor(k((k+1)v-1)(kv+1)/(2k+1)) + 1),
and for a suitable v that pair lands strictly between the greedy sum and
p/q. Suitability of v is exactly the strict floor inequality evaluated by
``check_s5``.

The choice of v splits on k mod 4: for k = 4j it is always v = 1; the
other residues pick v from a bracket in s whose endpoints tile the j-axis
(``_BRACKETS``; tables of hand-checked (k, v) values cover the small j
before each bracket rule starts). The quadratic certificates behind the
bracket rules are verified without any square roots: the quadratic has
positive leading coefficient, so checking strict negativity at both
integer endpoints of a bracket covers every j inside it by convexity
(``check_root_interval``).
``check_fractional_claims`` verifies the exact fractional parts that make
the floor in the inequality computable in closed form on each family.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from . import rational
from .errors import DomainError, InvariantViolation
from .greedy import expand, g_func, upsilon
from .report import VerificationReport

# k mod 4 -> (s_min, first j of bracket s, last j of bracket s, v for bracket s).
# For k = 4j + residue, the bracket holding j gives v; the brackets of
# consecutive s tile the j-axis from the first j of bracket s_min on.
_BRACKETS = {
    1: (1, lambda s: s * (s + 1) // 2, lambda s: (s + 1) * (s + 2) // 2 - 1, lambda s: 2 * s + 5),
    2: (0, lambda s: 12 + s * (s + 7), lambda s: 11 + (s + 1) * (s + 8), lambda s: 4 * s + 20),
    3: (2, lambda s: s * (s + 1), lambda s: (s + 1) * (s + 2) - 1, lambda s: 4 * s + 8),
}

# Hand-picked v for k = 4j+2 with 1 <= j <= 11; the bracket rule takes
# over at j = 12.
TABLE_1 = {6: 8, 10: 11, 14: 12, 18: 12, 22: 12, 26: 15, 30: 16, 34: 16, 38: 16, 42: 16, 46: 16}

# Hand-picked v for k = 4j+3 with 1 <= j <= 5; the bracket rule takes
# over at j = 6.
TABLE_2 = {7: 8, 11: 13, 15: 12, 19: 12, 23: 12}


class Counterexample(NamedTuple):
    """A fraction p/q with upsilon(p, q) = k whose greedy pair is beaten.

    ``s`` is the bracket parameter behind the choice of v; None when v
    came from a table or from the constant k = 0 mod 4 rule.
    """

    k: int
    p: int
    q: int
    v: int
    s: Optional[int]
    greedy_pair: tuple[int, int]
    beating_pair: tuple[int, int]

    @property
    def margin(self) -> Fraction:
        """Beating sum minus greedy sum; strictly positive."""
        a1, a2 = self.greedy_pair
        x1, x2 = self.beating_pair
        return Fraction(1, x1) + Fraction(1, x2) - Fraction(1, a1) - Fraction(1, a2)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "p": self.p,
            "q": self.q,
            "v": self.v,
            "s": self.s,
            "greedy_pair": [str(t) for t in self.greedy_pair],
            "beating_pair": [str(t) for t in self.beating_pair],
            "margin": rational.to_json(self.margin),
        }


def _core(k: int, v: int) -> int:
    """k(kv+1)((k+1)v-1); over 2k+1 it is the floor argument of ``check_s5``."""
    return k * (k * v + 1) * ((k + 1) * v - 1)


def check_s5(k: int, v: int) -> bool:
    """Exact verdict of the suitability inequality for (k, v):

    (k(kv+1)((k+1)v-1) + k + 1/v) / (2k+1 + 1/(kv^2))
        > floor(k(kv+1)((k+1)v-1) / (2k+1)) + 1.
    """
    if k < 4 or v < 1:
        raise DomainError("need k >= 4 and v >= 1")
    core = _core(k, v)
    lhs = (Fraction(core + k) + Fraction(1, v)) / (Fraction(2 * k + 1) + Fraction(1, k * v * v))
    rhs = core // (2 * k + 1) + 1
    return lhs > rhs


def beating_pair(k: int, v: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Greedy pair and the pair that beats it, verified exactly.

    Requires check_s5(k, v). Returns ((a1, a2), (x1, x2)) with
    a1 = kv, a2 = kv((k+1)v - 1) + 1, x1 = a1 + 1 and x2 the greedy
    partner of x1, and asserts the strict sandwich
    1/a1 + 1/a2 < 1/x1 + 1/x2 < p/q.
    """
    if not check_s5(k, v):
        raise DomainError(f"(k, v) = ({k}, {v}) does not satisfy the suitability inequality")
    p, q = k + 1, (k + 1) * k * v - k
    a1 = k * v
    a2 = k * v * ((k + 1) * v - 1) + 1
    x1 = a1 + 1
    x2 = _core(k, v) // (2 * k + 1) + 1

    theta = Fraction(p, q)
    if x2 != g_func(theta - Fraction(1, x1)):
        raise InvariantViolation(f"partner formula disagrees with greedy at k={k}, v={v}")
    greedy_sum = Fraction(1, a1) + Fraction(1, a2)
    beating_sum = Fraction(1, x1) + Fraction(1, x2)
    if not greedy_sum < beating_sum < theta:
        raise InvariantViolation(f"beating pair fails the strict sandwich at k={k}, v={v}")
    return (a1, a2), (x1, x2)


def _bracket_s(residue: int, j: int) -> int:
    """Unique s >= s_min whose bracket for k = residue mod 4 holds j.

    first(s) increases with s, so s is the last s with first(s) <= j, found
    by doubling a step from s_min and then halving it: O(log j) brackets
    are looked at, not O(sqrt j). The brackets tile the j-axis; that j
    lies in bracket s, and in no neighbour, is asserted, not assumed.
    """
    s_min, first, last, _ = _BRACKETS[residue]
    s, step = s_min, 1
    while first(s + step) <= j:
        s += step
        step *= 2
    while step > 1:  # first(s) <= j < first(s + step), or j is below bracket s_min
        step //= 2
        if first(s + step) <= j:
            s += step
    if not first(s) <= j <= last(s):
        raise InvariantViolation(f"bracket rule skipped j = {j}")
    if (s > s_min and j <= last(s - 1)) or first(s + 1) <= j:
        raise InvariantViolation(f"bracket rule ambiguous at j = {j}")
    return s


def select_v(k: int) -> tuple[int, Optional[int]]:
    """The v used by construct(k), with its bracket parameter s if any."""
    if k < 4:
        raise DomainError("need k >= 4")
    residue = k % 4
    if residue == 0:
        return 1, None
    if k in TABLE_1:
        return TABLE_1[k], None
    if k in TABLE_2:
        return TABLE_2[k], None
    s = _bracket_s(residue, k // 4)
    v_of = _BRACKETS[residue][3]
    return v_of(s), s


def construct(k: int) -> Counterexample:
    """Counterexample fraction for divisibility index k >= 4.

    Verifies, before returning: upsilon(p, q) = k, k | q, the greedy pair
    matches the actual expansion, and the strict sandwich inequality. Any
    failure is a construction bug and raises InvariantViolation.
    """
    v, s = select_v(k)
    p, q = k + 1, (k + 1) * k * v - k
    if upsilon(p, q) != k or q % k != 0:
        raise InvariantViolation(f"constructed q = {q} has the wrong divisibility at k = {k}")
    greedy, beating = beating_pair(k, v)
    if expand(Fraction(p, q), 2).terms != list(greedy):
        raise InvariantViolation(f"greedy pair formula wrong at k = {k}, v = {v}")
    return Counterexample(k=k, p=p, q=q, v=v, s=s, greedy_pair=greedy, beating_pair=beating)


# ---------------------------------------------------------------------------
# Closed-form fractional parts on the three bracket families
# ---------------------------------------------------------------------------

_CLAIMS = {
    # claim id -> (residue of k mod 4, claimed fractional part at (j, s))
    "cls1": (1, lambda j, s: Fraction(5 * j + 2 + 3 * s + (s - 2) * (s - 1) // 2, 8 * j + 3)),
    "cls2": (2, lambda j, s: Fraction(2 * s * s + 18 * s + 4 * j + 43, 8 * j + 5)),
    "cll5": (3, lambda j, s: Fraction(2 * s * s + 6 * s + 4 * j + 8, 8 * j + 7)),
}


def check_fractional_claims(claim: str, j_max: int) -> VerificationReport:
    """Verify a closed-form fractional part over its whole j range up to j_max.

    For each j from the first bracket of the claim's residue on, with
    k = 4j + residue and s, v picked by the bracket rule, the exact
    fractional part of the floor argument ``_core(k, v)/(2k+1)`` of
    ``check_s5`` must equal the claimed form.
    """
    if claim not in _CLAIMS:
        raise DomainError(f"unknown claim {claim!r}; expected one of {sorted(_CLAIMS)}")
    residue, claimed_of = _CLAIMS[claim]
    s_min, first, _, v_of = _BRACKETS[residue]
    j_min = first(s_min)
    if j_max < j_min:
        raise DomainError(f"j_max must be >= {j_min} for {claim}")
    failures = []
    points = 0
    for j in range(j_min, j_max + 1):
        k = 4 * j + residue
        s = _bracket_s(residue, j)
        x = Fraction(_core(k, v_of(s)), 2 * k + 1)
        points += 1
        if x - (x.numerator // x.denominator) != claimed_of(j, s):
            failures.append((j, s))
    return VerificationReport(
        lemma_id=claim,
        range_descr=f"{j_min} <= j <= {j_max}, s by bracket rule",
        points_checked=points,
        failures=failures,
        expected_exceptions=[],
    )


# ---------------------------------------------------------------------------
# Root-interval certificates for the bracket rules
# ---------------------------------------------------------------------------

_ROOT_COEFFS = {
    # residue of k mod 4 -> coefficients (A, B, C) of Ax^2-Bx-C at bracket s
    1: lambda s: (
        8 * s * s + 40 * s + 50,
        4 * s**4 + 32 * s**3 + 85 * s * s + 79 * s + 10,
        s**4 + 8 * s**3 + 22 * s * s + 23 * s + 6,
    ),
    2: lambda s: (
        64 * s + 320,
        64 * s**3 + 896 * s * s + 4088 * s + 6048,
        32 * s**3 + 448 * s * s + 2061 * s + 3108,
    ),
    3: lambda s: (
        64 * (s + 2),
        8 * (8 * s**3 + 40 * s * s + 51 * s + 7),
        48 * s**3 + 240 * s * s + 343 * s + 115,
    ),
}


def check_root_interval(residue_case: int, s_max: int) -> VerificationReport:
    """Verify that each bracket sits strictly between the roots of its quadratic.

    The quadratic A*x**2 - B*x - C has A > 0, so strict negativity at both
    integer endpoints of the bracket puts every j in the bracket strictly
    between the two roots, with no square root ever computed.
    """
    if residue_case not in _ROOT_COEFFS:
        raise DomainError("residue_case must be 1, 2 or 3")
    if s_max < 2:
        raise DomainError("s_max must be >= 2")
    coeffs = _ROOT_COEFFS[residue_case]
    s_min, first, last, _ = _BRACKETS[residue_case]
    failures = []
    points = 0
    for s in range(s_min, s_max + 1):
        a, b, c = coeffs(s)
        for j in (first(s), last(s)):
            points += 1
            if not a * j * j - b * j - c < 0:
                failures.append((s, j))
    return VerificationReport(
        lemma_id=f"roots-case{residue_case}",
        range_descr=f"{s_min} <= s <= {s_max}, both bracket endpoints",
        points_checked=points,
        failures=failures,
        expected_exceptions=[],
    )


def verify_tables() -> VerificationReport:
    """check_s5 must hold at every tabulated (k, v) entry."""
    failures = []
    entries = sorted(TABLE_1.items()) + sorted(TABLE_2.items())
    for k, v in entries:
        if not check_s5(k, v):
            failures.append((k, v))
    return VerificationReport(
        lemma_id="tables",
        range_descr=f"{len(entries)} tabulated (k, v) entries",
        points_checked=len(entries),
        failures=failures,
        expected_exceptions=[],
    )
