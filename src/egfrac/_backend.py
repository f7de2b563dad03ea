"""Sweep kernels: the hot inner loops of the verification sweeps.

One row of the threshold sweep is one ``two_term_scan`` call, and one
lemma point is one ``lp*_point`` call. Everything here is integer-only
(floors via integer division, comparisons via cross-multiplication), so
a sweep over millions of points never allocates a Fraction, and every
function is exact for arbitrarily large inputs.

``_closing_term`` and ``_error_floor`` are the last-two-level solver of
``underapprox.best_m_term``, whose docstring holds the proof that the
error floor may close the range. ``two_term_scan`` is the same solver at
m = 2 and partial sum 0 with both helpers written out, so that each x1
forms its products once.
"""

from __future__ import annotations

from math import gcd


def backend_name() -> str:
    """The kernel implementation in use; there is only the pure-Python one."""
    return "pure"


def _closing_term(a: int, b: int, x: int) -> tuple[int, int, int]:
    """Best last term y >= x after x, for residual a/b and x > b/a.

    Returns (y, num, den) with a/b - 1/x - 1/y = num/den > 0, not reduced.
    """
    d = a * x - b
    bx = b * x
    y = bx // d + 1
    if y < x:
        y = x
    return y, d * y - bx, bx * y


def _error_floor(a: int, b: int, x: int) -> tuple[int, int]:
    """g(x) = b^2 x^2/(a*x - b) + b*x as (num, den), for x > b/a.

    Every pair (x, y) with y >= x, for residual a/b, misses it by at
    least 1/g(x); see ``underapprox.best_m_term``.
    """
    d = a * x - b
    bx = b * x
    return bx * (bx + d), d


def two_term_scan(p: int, q: int) -> tuple[int, int, int, int, list[tuple[int, int]]]:
    """Complete search for the best two-term underapproximation of p/q.

    Requires 0 < p/q <= 1 in lowest terms. Returns
    ``(a1, a2, best_num, best_den, tuples)`` where (a1, a2) is the greedy
    pair, best_num/best_den the optimal sum in lowest terms, and tuples
    the sorted list of every optimal pair (x1 <= x2), ties included.

    This is the last-two-level solver of ``best_m_term`` at m = 2 and
    partial sum s = 0, with ``_closing_term`` and ``_error_floor`` written
    out so that each x1 = x forms d = p*x - q and bx = q*x once (at
    x = a1, d is upsilon(p, q)). The best partner of x is
    y = max(x, bx//d + 1), with error (d*y - bx)/(bx*y), and every pair
    (x, y) misses by at least 1/g(x) with g(x) = bx*(bx + d)/d. The x1
    range is [a1, floor(2/B)] for the incumbent sum B, and it closes
    early once the error floor 1/max(g(x1), g(floor(2/B))) is strictly
    above the incumbent's error p/q - B, so ties are still found. The
    bound and the incumbent's error are recomputed whenever B improves.
    """
    a1 = q // p + 1
    d = p * a1 - q
    bx = q * a1
    a2 = bx // d + 1  # > a1, as p/q - 1/a1 <= 1/a1
    e_num, e_den = d * a2 - bx, bx * a2
    b1, b2 = a1, a2
    found = [(a1, a2)]
    upper = 2 * a1 * a2 // (a1 + a2)
    far = None  # 1/g(upper) > p/q - B, computed once the range is entered
    x = a1 + 1
    while x <= upper:
        d = p * x - q
        bx = q * x
        if far is None:
            du = p * upper - q
            bu = q * upper
            far = bu * (bu + du) * e_num < du * e_den
        if far and bx * (bx + d) * e_num < d * e_den:
            break
        y = bx // d + 1
        if y < x:
            y = x
        num = d * y - bx
        den = bx * y
        lhs = num * e_den
        rhs = e_num * den
        if lhs < rhs:
            e_num, e_den = num, den
            b1, b2 = x, y
            found = [(x, y)]
            upper = 2 * x * y // (x + y)
            far = None
        elif lhs == rhs:
            found.append((x, y))
        x += 1

    s_num, s_den = b1 + b2, b1 * b2
    g = gcd(s_num, s_den)
    return a1, a2, s_num // g, s_den // g, found


def lp1_point(q: int, u: int, s: int, v: int) -> bool:
    """Point check of the divisor-offset-2 floor inequality.

    floor(qu(u+s) / (s(q+2)+2u)) > (qu+v)u(u+s) / (squ+vs+2u(u+s)) - 1,
    decided exactly by cross-multiplication. With b = u(u+s) and
    t = qu+v the right side is t*b / (s*t + 2b), so both products are
    formed once.
    """
    b = u * (u + s)
    t = q * u + v
    lhs = q * b // (s * (q + 2) + 2 * u)
    return (lhs + 1) * (s * t + 2 * b) > t * b


def lp11_point(q: int, u: int, s: int, v: int) -> bool:
    """Point check of the divisor-offset-3 floor inequality (general s).

    The offset-3 form of ``lp1_point``: floor(q*b / (s(q+3)+3u)) >
    t*b / (s*t + 3b) - 1 with b = u(u+s), t = qu+v.
    """
    b = u * (u + s)
    t = q * u + v
    lhs = q * b // (s * (q + 3) + 3 * u)
    return (lhs + 1) * (s * t + 3 * b) > t * b


def lp50_point(q: int, u: int) -> bool:
    """Point check of the divisor-offset-3 inequality at s = 1, v = 3."""
    b = u * (u + 1)
    t = q * u + 3
    lhs = q * b // (q + 3 * (u + 1))
    return (lhs + 1) * (t + 3 * b) > t * b


def lp12_point(s: int) -> bool:
    """Point check of floor(61(8+s)/(8s+3)) > 3912(8+s)/(513s+192) - 1."""
    lhs = (61 * (8 + s)) // (8 * s + 3)
    return (lhs + 1) * (513 * s + 192) > 3912 * (8 + s)


def lp12_point_is_equality(s: int) -> bool:
    """True when the two sides of the lp12 inequality agree exactly."""
    lhs = (61 * (8 + s)) // (8 * s + 3)
    return (lhs + 1) * (513 * s + 192) == 3912 * (8 + s)
