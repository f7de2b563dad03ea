"""Greedy unit-fraction expansion and its per-step analysis.

The greedy operator picks, at every step, the largest unit fraction that
keeps the running sum strictly below the target theta. Writing
``G(theta) = floor(1/theta) + 1``, the expansion denominators are
``a_1 = G(theta)`` and ``a_m = G(e_{m-1})`` where ``e_m`` is the exact
error left after m steps. Consecutive terms always satisfy
``a_{n+1} >= a_n^2 - a_n + 1`` (with a_1 >= 2), the expansion of 1 is
Sylvester's sequence 2, 3, 7, 43, ..., and for rational targets the
quadratic recurrence ``a_{n+1} = a_n^2 - a_n + 1`` holds exactly from
some index on.

Besides the expansion itself this module computes the divisibility index
upsilon(p, q) (the least m >= 1 with p | q+m), its nonnegative variant
ell, the integral-reciprocal index delta, the step function
``phi(theta) = 1/(G(theta) - 1/theta)``, the best numerator-N
underapproximant denominator, the four-way equivalence report for
``1/a_m = N/b_m``, and the closed form of the expansion where one is
known. ``reduced`` is the one check on a fraction given as two integers
p, q: it reduces p/q and rejects it unless p, q >= 1 and p <= q. The CLI,
``ell_index``, ``upsilon_profile`` and ``closed_form`` run it. ``_family``
is the one place the divisibility families are told apart (upsilon | q,
upsilon = 2 with q odd, p | q+1), for ``upsilon_profile`` and
``closed_form`` alike. p | q+1 is the upsilon = 1 case of upsilon | q and
shares its formula.

Everything is a pure function of exact rationals; nothing here touches
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import Iterator, NamedTuple, Optional, Sequence

from . import rational
from .errors import DigitGuardExceeded, DomainError, InvariantViolation

FAMILY_UPSILON_DIVIDES_Q = "UpsilonDividesQ"
FAMILY_UPSILON2_ODD_Q = "Upsilon2OddQ"
FAMILY_P_DIVIDES_Q_PLUS_1 = "PDividesQPlus1"
FAMILY_GENERAL = "General"


def _require_unit_interval(theta: Fraction) -> None:
    if not 0 < theta <= 1:
        raise DomainError(f"theta must lie in (0, 1], got {theta}")


def g_func(theta: Fraction) -> int:
    """Denominator of the greedy choice: floor(1/theta) + 1.

    1/g_func(theta) is the largest unit fraction strictly below theta:
    1/G < theta <= 1/(G-1).
    """
    _require_unit_interval(theta)
    return theta.denominator // theta.numerator + 1


def phi(theta: Fraction) -> Fraction:
    """Exact value of 1/(G(theta) - 1/theta); always >= 1.

    Takes the value 1 exactly at theta = 1/n. (The jump discontinuities at
    those points are a concern only for whoever samples this on a grid.)
    """
    _require_unit_interval(theta)
    g = g_func(theta)
    # 1/(g - den/num) = num / (g*num - den)
    return Fraction(theta.numerator, g * theta.numerator - theta.denominator)


def superior_denominator(e: Fraction, n: int) -> int:
    """Smallest b with n/b strictly below e, i.e. floor(n/e) + 1.

    n/b is the largest fraction of numerator n underapproximating e;
    n = 1 recovers the greedy operator g_func.
    """
    if e <= 0:
        raise DomainError("target must be positive")
    if n < 1:
        raise DomainError("numerator must be a positive integer")
    return (n * e.denominator) // e.numerator + 1


def greedy_steps(
    theta: Fraction, digit_guard: Optional[int] = None
) -> Iterator[tuple[int, Fraction]]:
    """Yield (a_m, e_m) forever: the m-th denominator and the exact error.

    The error is carried incrementally; its numerator never exceeds the
    (reduced) numerator of theta, only denominators explode.
    ``digit_guard`` raises DigitGuardExceeded, before any arithmetic on
    it, once a denominator a_m has more than that many decimal digits;
    None means no cap. A cap below 1 digit is a DomainError.
    """
    _require_unit_interval(theta)
    if digit_guard is not None and digit_guard < 1:
        raise DomainError(f"digit guard must be at least 1, got {digit_guard}")
    # a below 2**safe_bits has at most digit_guard digits, since
    # 3.321928 < log2(10); only a longer a is compared with 10**digit_guard
    safe_bits = digit_guard * 3321928 // 10**6 if digit_guard is not None else None
    e = theta
    step = 0
    while True:
        step += 1
        a = e.denominator // e.numerator + 1
        if safe_bits is not None and a.bit_length() > safe_bits and a >= 10**digit_guard:
            raise DigitGuardExceeded(step, digit_guard)
        e = e - Fraction(1, a)
        yield a, e


class Expansion(NamedTuple):
    """A greedy expansion prefix: target, denominators a_1..a_m, exact error.

    ``recurrence_start`` is the smallest 1-based index j such that every
    computed consecutive pair from j on satisfies
    a_{n+1} = a_n**2 - a_n + 1, or None when not even the last pair does.
    """

    theta: Fraction
    terms: list[int]
    error: Fraction
    recurrence_start: Optional[int]

    def to_json_dict(self) -> dict:
        return {
            "theta": rational.to_json(self.theta),
            "terms": [str(t) for t in self.terms],
            "error": rational.to_json(self.error),
            "recurrence_start": self.recurrence_start,
        }


def _observed_recurrence_start(terms: Sequence[int]) -> Optional[int]:
    start = None
    for i in range(len(terms) - 1, 0, -1):
        if terms[i] == terms[i - 1] * terms[i - 1] - terms[i - 1] + 1:
            start = i  # 1-based index of the pair's first element
        else:
            break
    return start


def expand(theta: Fraction, m: int, digit_guard: Optional[int] = None) -> Expansion:
    """First m greedy denominators of theta with the exact error after them.

    ``digit_guard``, when given, aborts with DigitGuardExceeded as soon as
    the next denominator would exceed that many decimal digits; the
    library default is unlimited.
    """
    _require_unit_interval(theta)
    if m < 1:
        raise DomainError("term count must be >= 1")
    terms: list[int] = []
    for _, (a, e) in zip(range(m), greedy_steps(theta, digit_guard)):
        terms.append(a)
    return Expansion(theta, terms, e, _observed_recurrence_start(terms))


def upsilon(p: int, q: int) -> int:
    """Smallest positive m with p | q + m; always <= p."""
    if p < 1 or q < 1:
        raise DomainError("p and q must be positive integers")
    r = (-q) % p
    return r if r else p


def ell_index(p: int, q: int) -> int:
    """Smallest nonnegative ell with p | q + ell, for reduced p/q.

    Zero exactly when p divides q (which for reduced input forces p = 1);
    otherwise equal to upsilon(p, q).
    """
    if reduced(p, q) != (p, q):
        raise DomainError(f"{p}/{q} is not in lowest terms")
    return (-q) % p


def delta_index(p: int, q: int, digit_guard: Optional[int] = None) -> int:
    """Smallest m >= 0 such that the reciprocal of e_m is a positive integer.

    Always <= ell_index(p, q): after clearing ell terms the residual is a
    unit fraction, but it can become one earlier (7/54 reaches 1/216 after
    a single step while ell = 2). ``digit_guard`` caps the denominators of
    that walk as in ``expand``; the library default is unlimited.
    """
    ell = ell_index(p, q)
    e = Fraction(p, q)
    steps = greedy_steps(e, digit_guard)
    for m in range(ell + 1):
        if e.numerator == 1:
            return m
        _, e = next(steps)
    raise InvariantViolation(
        f"no integral-reciprocal error within ell={ell} steps for {p}/{q}"
    )


def reduced(p: int, q: int) -> tuple[int, int]:
    """p/q in lowest terms; a DomainError unless p, q >= 1 and p <= q."""
    if p < 1 or q < 1:
        raise DomainError("p and q must be positive integers")
    if p > q:
        raise DomainError("expected p/q in (0, 1]")
    g = gcd(p, q)
    return p // g, q // g


class UpsilonProfile(NamedTuple):
    """Divisibility profile of a reduced fraction p/q in (0, 1].

    ``family`` tags which closed-form expansion family applies (the
    most specific one when several do); "General" means none is known.
    """

    p: int
    q: int
    upsilon: int
    ell: int
    delta: int
    family: str

    def to_json_dict(self) -> dict:
        return self._asdict()


def _family(p: int, q: int, ups: int) -> str:
    """The closed-form family of reduced p/q with upsilon ``ups``, the most specific one."""
    if (q + 1) % p == 0:
        return FAMILY_P_DIVIDES_Q_PLUS_1
    if q % ups == 0:
        return FAMILY_UPSILON_DIVIDES_Q
    if ups == 2 and q % 2 == 1:
        return FAMILY_UPSILON2_ODD_Q
    return FAMILY_GENERAL


def upsilon_profile(p: int, q: int, digit_guard: Optional[int] = None) -> UpsilonProfile:
    """Reduce p/q with ``reduced`` and report upsilon, ell, delta and the
    family from ``_family``.

    ``digit_guard`` caps the denominators of the delta walk as in
    ``expand``; the library default is unlimited.
    """
    p, q = reduced(p, q)
    ups = upsilon(p, q)
    delta = delta_index(p, q, digit_guard)
    return UpsilonProfile(p, q, ups, ell_index(p, q), delta, _family(p, q, ups))


class StepReport(NamedTuple):
    """The four equivalent step conditions, evaluated exactly.

    For the m-th step and numerator n, the conditions are
      i)   a_{m+1} >= n*a_m**2 - a_m + 1
      ii)  b_m = n*a_m            (n/b_m is the best numerator-n choice)
      iii) phi(e_{m-1}) >= n
      iv)  e_{m-1} <= n/(n*a_m - 1)
    They provably coincide, so step_report raises InvariantViolation if
    they ever disagree: a disagreement is an implementation bug, never a
    mathematical outcome.
    """

    m: int
    a_m: int
    n: int
    b_m: int
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    cond_iv: bool
    phi_value: Fraction

    @property
    def holds(self) -> bool:
        return self.cond_i

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "a_m": str(self.a_m),
            "n": self.n,
            "b_m": str(self.b_m),
            "cond_i": self.cond_i,
            "cond_ii": self.cond_ii,
            "cond_iii": self.cond_iii,
            "cond_iv": self.cond_iv,
            "phi_value": rational.to_json(self.phi_value),
        }


def step_report(
    theta: Fraction, m: int, n: int, digit_guard: Optional[int] = None
) -> StepReport:
    """Evaluate conditions i)-iv) at step m for numerator n and check they agree.

    ``digit_guard`` caps every denominator a_1..a_{m+1} as in ``expand``;
    the library default is unlimited.
    """
    _require_unit_interval(theta)
    if m < 1 or n < 1:
        raise DomainError("m and n must be positive integers")
    steps = greedy_steps(theta, digit_guard)
    e_before = theta  # ends as e_{m-1}
    e_after = theta
    a_m = 0
    for _ in range(m):
        e_before = e_after
        a_m, e_after = next(steps)
    a_next, _ = next(steps)

    b_m = superior_denominator(e_before, n)
    phi_value = phi(e_before)

    cond_i = a_next >= n * a_m * a_m - a_m + 1
    cond_ii = b_m == n * a_m
    cond_iii = phi_value >= n
    cond_iv = e_before <= Fraction(n, n * a_m - 1)

    if not cond_i == cond_ii == cond_iii == cond_iv:
        raise InvariantViolation(
            f"step conditions disagree at theta={theta}, m={m}, n={n}: "
            f"{cond_i}, {cond_ii}, {cond_iii}, {cond_iv}"
        )
    return StepReport(m, a_m, n, b_m, cond_i, cond_ii, cond_iii, cond_iv, phi_value)


def closed_form(p: int, q: int, m: int) -> list[int]:
    """First m expansion terms of reduced p/q from its family's closed form.

    Upsilon | q (p | q+1 is upsilon = 1): a_1 = (q + upsilon)/p and
    a_{n+1} = (q/upsilon) * prod(a_1..a_n) + 1. Upsilon = 2, q odd:
    a_1 = (q+2)/p, a_2 = floor(q*a_1/2) + 1, then base q. "General" is a
    DomainError. The terms must equal the greedy expansion, and for p = 1
    follow a_{n+1} = a_n**2 - a_n + 1; else InvariantViolation.
    """
    if m < 1:
        raise DomainError("term count must be >= 1")
    p, q = reduced(p, q)
    ups = upsilon(p, q)
    family = _family(p, q, ups)
    if family == FAMILY_GENERAL:
        raise DomainError(f"no closed form is known for {p}/{q}")
    terms = [(q + ups) // p]
    base = q // ups
    if family == FAMILY_UPSILON2_ODD_Q:
        terms.append(q * terms[0] // 2 + 1)
        base = q
    product = prod(terms)
    while len(terms) < m:
        terms.append(base * product + 1)
        product *= terms[-1]
    del terms[m:]
    if p == 1 and m > 1 and _observed_recurrence_start(terms) != 1:
        raise InvariantViolation(f"p = 1 family must follow the quadratic recurrence, q = {q}")
    computed = expand(Fraction(p, q), m).terms
    if computed != terms:
        raise InvariantViolation(
            f"closed form disagrees with the greedy expansion of {p}/{q}: "
            f"{terms} vs {computed}"
        )
    return terms
