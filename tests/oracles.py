"""Independent brute-force oracles used to cross-check the library.

Deliberately plain: bounded loops over elementary complete ranges and
Fraction arithmetic, sharing no code with the search implementations they
check. The enumeration ranges are the provable ones: any tuple whose sum
reaches the greedy m-term sum S has 1/x1 >= S/m, and given x1 (always at
least the greedy first term, so S - 1/x1 > 0) the next denominator
satisfies 1/x2 >= (S - 1/x1)/(m-1); the last position is filled by the
largest feasible unit fraction.

``branch_and_bound_m_term`` is the m-term search as it was before its
last two levels got a closed form and an error bound: every x_{m-1} in
the level's range is tried. It is the reference for m = 4.
``two_term_scan`` is, in the same way, the two-term kernel before its x1
range could close early: every x1 up to floor(2/S) is tried. The
``lp*`` functions are the lemma kernels as first written, each side of
the inequality multiplied out on its own, and ``lemma_box`` walks the
(q, u) of their sweeps by trial division. ``select_v`` is the choice of v
in the counterexample construction, with each bracket found in closed
form by an integer square root instead of by walking the brackets.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Optional


def smallest_denominator_below(r: Fraction) -> int:
    """Smallest x with 1/x strictly below r, self-checked."""
    x = r.denominator // r.numerator + 1
    assert Fraction(1, x) < r
    assert x == 1 or r <= Fraction(1, x - 1)
    return x


def greedy_prefix(p: int, q: int, m: int) -> tuple[list[int], Fraction]:
    r = Fraction(p, q)
    terms = []
    for _ in range(m):
        x = smallest_denominator_below(r)
        terms.append(x)
        r -= Fraction(1, x)
    return terms, r


def brute_force_superior_denominator(e: Fraction, n: int) -> int:
    """Smallest b with n/b < e, found by incrementing from 1."""
    b = 1
    while not Fraction(n, b) < e:
        b += 1
    return b


def naive_best_m_term(p: int, q: int, m: int) -> tuple[Fraction, list[tuple[int, ...]]]:
    """Exhaustive enumeration for m <= 3; returns (optimal sum, argmax tuples)."""
    theta = Fraction(p, q)
    greedy, _ = greedy_prefix(p, q, m)
    floor_sum = sum(Fraction(1, a) for a in greedy)
    a1 = smallest_denominator_below(theta)
    if m == 1:
        return Fraction(1, a1), [(a1,)]

    best = floor_sum
    found = {tuple(greedy)}

    def consider(tup: tuple[int, ...], total: Fraction) -> None:
        nonlocal best, found
        if total >= theta:
            return
        if total > best:
            best, found = total, {tup}
        elif total == best:
            found.add(tup)

    x1_hi = (m * floor_sum.denominator) // floor_sum.numerator
    if m == 2:
        for x1 in range(a1, x1_hi + 1):
            r1 = theta - Fraction(1, x1)
            x2 = max(x1, smallest_denominator_below(r1))
            consider((x1, x2), Fraction(1, x1) + Fraction(1, x2))
        return best, sorted(found)

    assert m == 3, "oracle only covers m <= 3"
    for x1 in range(a1, x1_hi + 1):
        f1 = Fraction(1, x1)
        r1 = theta - f1
        room = floor_sum - f1
        x2_hi = (2 * room.denominator) // room.numerator
        for x2 in range(max(x1, smallest_denominator_below(r1)), x2_hi + 1):
            f2 = Fraction(1, x2)
            r2 = r1 - f2
            x3 = max(x2, smallest_denominator_below(r2))
            consider((x1, x2, x3), f1 + f2 + Fraction(1, x3))
    return best, sorted(found)


def branch_and_bound_m_term(
    p: int, q: int, m: int, budget: int
) -> Optional[tuple[Fraction, list[tuple[int, ...]]]]:
    """Plain branch-and-bound over nondecreasing tuples for m >= 2.

    Returns (optimal sum, argmax tuples), or None after ``budget`` nodes.
    At level i with partial sum s, x_i runs over
    [max(x_{i-1}, floor(1/(theta-s)) + 1), floor((m-i+1)/(B-s))], B the
    incumbent, and the last term is the largest feasible unit fraction.
    The level bound compares integer pairs: Fraction arithmetic in that
    loop would make the oracle too slow for a test at m = 4.
    """
    greedy, _ = greedy_prefix(p, q, m)
    greedy_sum = sum(Fraction(1, a) for a in greedy)
    best = [greedy_sum.numerator, greedy_sum.denominator]
    found = {tuple(greedy)}
    nodes = 0
    prefix: list[int] = []

    def descend(level: int, prev: int, s_num: int, s_den: int) -> bool:
        nonlocal nodes
        r = Fraction(p * s_den - s_num * q, q * s_den)
        x = max(prev, r.denominator // r.numerator + 1)
        if level == m:
            total = Fraction(s_num * x + s_den, s_den * x)
            if total > Fraction(*best):
                best[:] = total.numerator, total.denominator
                found.clear()
            if total == Fraction(*best):
                found.add((*prefix, x))
            return True
        remaining = m - level + 1
        while (s_num * x + remaining * s_den) * best[1] >= best[0] * s_den * x:
            nodes += 1
            if nodes > budget:
                return False
            prefix.append(x)
            done = descend(level + 1, x, s_num * x + s_den, s_den * x)
            prefix.pop()
            if not done:
                return False
            x += 1
        return True

    if not descend(1, 2, 0, 1):
        return None
    return Fraction(*best), sorted(found)


def two_term_scan(p: int, q: int) -> tuple[int, int, int, int, list[tuple[int, int]]]:
    """Best two-term underapproximation of reduced p/q <= 1 by a static range.

    Same return value as ``egfrac._backend.two_term_scan``. Any pair summing
    to at least the greedy sum S has 1/x1 >= S/2, so x1 <= floor(2/S); each
    x1 is paired with the largest unit fraction below p/q - 1/x1, swapped
    into order when that partner is smaller.
    """
    a1 = q // p + 1
    r_num, r_den = p * a1 - q, q * a1
    a2 = r_den // r_num + 1

    s_num, s_den = a1 + a2, a1 * a2
    x1_hi = (2 * s_den) // s_num

    best_num, best_den = s_num, s_den
    found = {(a1, a2)}
    for x1 in range(a1, x1_hi + 1):
        rn, rd = p * x1 - q, q * x1
        x2 = rd // rn + 1
        c_num, c_den = x1 + x2, x1 * x2
        lhs = c_num * best_den
        rhs = best_num * c_den
        if lhs > rhs:
            best_num, best_den = c_num, c_den
            found = {(x1, x2) if x1 <= x2 else (x2, x1)}
        elif lhs == rhs:
            found.add((x1, x2) if x1 <= x2 else (x2, x1))

    g = gcd(best_num, best_den)
    return a1, a2, best_num // g, best_den // g, sorted(found)


def lp1_point(q: int, u: int, s: int, v: int) -> bool:
    lhs = (q * u * (u + s)) // (s * (q + 2) + 2 * u)
    num = (q * u + v) * u * (u + s)
    den = s * q * u + v * s + 2 * u * (u + s)
    return (lhs + 1) * den > num


def lp11_point(q: int, u: int, s: int, v: int) -> bool:
    lhs = (q * u * (u + s)) // (s * (q + 3) + 3 * u)
    num = (q * u + v) * u * (u + s)
    den = s * q * u + v * s + 3 * u * (u + s)
    return (lhs + 1) * den > num


def lp11_is_tie(q: int, u: int, s: int, v: int) -> bool:
    lhs = (q * u * (u + s)) // (s * (q + 3) + 3 * u)
    num = (q * u + v) * u * (u + s)
    den = s * q * u + v * s + 3 * u * (u + s)
    return (lhs + 1) * den == num


def lp50_point(q: int, u: int) -> bool:
    lhs = (q * u * (u + 1)) // (q + 3 * (u + 1))
    num = (q * u + 3) * u * (u + 1)
    den = q * u + 3 + 3 * u * (u + 1)
    return (lhs + 1) * den > num


def lp12_point(s: int) -> bool:
    """floor(61(8+s)/(8s+3)) > 3912(8+s)/(513s+192) - 1."""
    lhs = (61 * (8 + s)) // (8 * s + 3)
    return (lhs + 1) * (513 * s + 192) > 3912 * (8 + s)


def lp12_is_tie(s: int) -> bool:
    lhs = (61 * (8 + s)) // (8 * s + 3)
    return (lhs + 1) * (513 * s + 192) == 3912 * (8 + s)


def lemma_box(q_max: int, offset: int, min_quotient: int):
    """(q, u) of a lemma sweep: u >= 2 divides q + offset with quotient >= min_quotient."""
    for q in range(1, q_max + 1):
        for u in range(2, (q + offset) // min_quotient + 1):
            if (q + offset) % u == 0:
                yield q, u


def reduced_fractions(q_max: int):
    """All reduced p/q with 1 <= p < q <= q_max, plus 1/1."""
    yield 1, 1
    for q in range(2, q_max + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield p, q


# v for k = 4j + 2, 1 <= j <= 11, and for k = 4j + 3, 1 <= j <= 5
_V_TABLE_K2 = {6: 8, 10: 11, 14: 12, 18: 12, 22: 12, 26: 15, 30: 16, 34: 16,
               38: 16, 42: 16, 46: 16}
_V_TABLE_K3 = {7: 8, 11: 13, 15: 12, 19: 12, 23: 12}


def select_v(k: int) -> tuple[int, Optional[int]]:
    """(v, s) for index k >= 4, s None when v is not from a bracket.

    k = 4j + 1: s >= 1 with s(s+1)/2 <= j < (s+1)(s+2)/2, v = 2s + 5.
    k = 4j + 2, j >= 12: 12 + s(s+7) = (s+3)(s+4) <= j < (s+4)(s+5),
    v = 4s + 20. k = 4j + 3, j >= 6: s >= 2 with s(s+1) <= j < (s+1)(s+2),
    v = 4s + 8. In each case s is the largest integer whose lower end is
    at most j.
    """
    j, residue = divmod(k, 4)
    if residue == 0:
        return 1, None
    if residue == 1:
        s = (isqrt(8 * j + 1) - 1) // 2
        return 2 * s + 5, s
    if residue == 2:
        if k in _V_TABLE_K2:
            return _V_TABLE_K2[k], None
        s = (isqrt(4 * j + 1) - 1) // 2 - 3
        return 4 * s + 20, s
    if k in _V_TABLE_K3:
        return _V_TABLE_K3[k], None
    s = (isqrt(4 * j + 1) - 1) // 2
    return 4 * s + 8, s
