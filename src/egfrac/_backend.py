"""Sweep kernels: the hot inner loops of the searches and sweeps.

``two_term_scan`` is the one solver of the last two levels of a best
underapproximation search: one call per row of the threshold sweep, and
one per node at level m - 1 of ``underapprox.best_m_term``. The lemmas
lp1, lp11, lp12 and lp50 are one floor inequality with offset c (2 for
lp1, 3 for the others), written once in ``_offset_point``, whose
docstring derives the kernel from the lemma. One lemma point is one
``lp*_point`` call (lp12 is ``lp11_point`` at q = 61, u = 8, v = 1) on
the point's terms (lcb, m, t), and a caller that holds them also reads
the exact tie from them.
Everything here is integer-only (floors via integer division,
comparisons via cross-multiplication), so a sweep over millions of
points never allocates a Fraction, and every function is exact for
arbitrarily large inputs.
"""

from __future__ import annotations

from typing import Optional


def backend_name() -> str:
    """The kernel implementation in use; there is only the pure-Python one."""
    return "pure"


def two_term_scan(
    a: int, b: int, x: int, e_num: int, e_den: int, cap: Optional[int] = None
) -> tuple[int, int, list[tuple[int, int]], int, int, bool]:
    """Best pairs x <= y, with x from ``x`` on, that underapproximate a/b.

    a/b is a reduced residual, ``x`` > b/a, and e_num/e_den >= 0 the
    incumbent's error: a/b or more when there is no incumbent yet, or
    when every pair beats it. A pair
    (x, y) counts when a/b - 1/x - 1/y is at most that error. No x above
    ``cap`` is tried (None: no cap). Returns
    ``(e_num, e_den, pairs, stop, pruned, done)``: the least error reached,
    not reduced (the incumbent's when no pair beats it); every pair that
    reaches it, in order of x (empty when none does); the first x not
    tried, so ``stop - x`` were tried; how many x the error floor closed
    without trying them; and False when the scan stopped at the cap with
    x still left in its range.

    For each x, d = a*x - b > 0, and the best partner is
    y = max(x, floor(b*x/d) + 1), the least y >= x with 1/y < a/b - 1/x =
    d/(b*x). Its error is a/b - 1/x - 1/y = (d*y - b*x)/(b*x*y). At
    x = floor(b/a) + 1, d is the divisibility index upsilon(a, b), and d
    grows by a per step.

    A pair with error at most e has 1/x + 1/y >= a/b - e, and 2/x >= 1/x +
    1/y, so x <= U = floor(2/(a/b - e)); once a pair (x, y) sets e, U is
    floor(2xy/(x + y)). With no incumbent below a/b there is no U yet, and
    the first pair tried beats it. The range is closed early by a bound on
    the error. With y unconstrained, y = floor(b*x/d) + 1 gives the error
    (d - (b*x mod d))/(b*x*y) >= 1/g(x), because the numerator is >= 1
    and y <= b*x/d + 1, so b*x*y <= b^2 x^2/d + b*x = g(x), where

        g(x) = b^2 x^2/(a*x - b) + b*x = b*x*(b*x + d)/d.

    Forcing y = x (when floor(b*x/d) + 1 < x) only lowers the sum, so the
    error of the pair actually taken is >= 1/g(x) too. Write t = a*x - b
    > 0: then g = (b/a)^2 (t + 2b + b^2/t) + b*x, a convex function of t
    plus a linear one, so g is convex on x > b/a. On [X, U] it therefore
    stays <= max(g(X), g(U)), and every x in [X, U] has error
    >= 1/max(g(X), g(U)). When that error floor is strictly above e, no x
    in [X, U] can beat or tie the incumbent, and the range is closed at X,
    so ties are still found. U and g(U) are recomputed whenever e
    improves. The floor is checked before the cap, so an x just past the
    cap can still close the range.
    """
    pairs = []
    gap = a * e_den - b * e_num  # (a/b - e) * b * e_den
    if gap > 0:
        upper = 2 * b * e_den // gap
        far = None  # 1/g(upper) > e, computed once the range is entered
    else:  # the pair at x beats the incumbent and sets the range
        upper = x
        far = False
    while x <= upper:
        d = a * x - b
        bx = b * x
        if far is None:
            du = a * upper - b
            bu = b * upper
            far = bu * (bu + du) * e_num < du * e_den
        if far and bx * (bx + d) * e_num < d * e_den:
            return e_num, e_den, pairs, x, upper - x + 1, True
        if cap is not None and x > cap:
            return e_num, e_den, pairs, x, 0, False
        y = bx // d + 1
        if y < x:
            y = x
        num = d * y - bx
        den = bx * y
        lhs = num * e_den
        rhs = e_num * den
        if lhs < rhs:
            e_num, e_den = num, den
            pairs = [(x, y)]
            upper = 2 * x * y // (x + y)
            far = None
        elif lhs == rhs:
            pairs.append((x, y))
        x += 1
    return e_num, e_den, pairs, x, 0, True


def _offset_point():
    """A point check of the divisor-offset-c floor inequality

        floor(q*u*(u+s) / (s*(q+c) + c*u)) > (qu+v)*u*(u+s) / (squ+vs+cu(u+s)) - 1

    at a point (q, u, s, v) of the lattice q + c = k*u, k >= 1 an integer.
    The returned ``point(lcb, m, t)`` takes the point's v-free terms
    ready-made: with l = floor(q*(u+s) / (s*k + c)) + 1 and b = u*(u+s),
    lcb = l*c*b and m = b - l*s; and t = q*u + v. It decides
    ``lcb > t * m``.

    That is the lemma's verdict: on the lattice s*(q+c) + c*u =
    s*k*u + c*u = u*(s*k + c), so u cancels from the floor side, which is
    floor(q*(u+s) / (s*k + c)) = l - 1. The right side is
    t*b / (s*t + c*b), since squ + vs = s*t, so the inequality is
    l - 1 > t*b/(s*t + c*b) - 1, and s*t + c*b > 0 clears the denominator
    exactly:

        l*(s*t + c*b) > t*b  <=>  l*c*b > t*b - l*s*t = t*(b - l*s),

    an identity in integers, for every sign of m = b - l*s, and it holds
    with = in place of >: the two sides tie exactly when lcb == t*m, which
    a caller that failed a point reads from the same triple. Since
    lcb > 0, the point holds for every v >= 1 when m <= 0, and when m > 0
    the largest t is the hardest. Nothing is checked: arguments that are
    not those of a lattice point give a verdict that is not the lemma's.
    The offset c enters only through lcb, so one factory serves every
    offset; each call makes a distinct function object, one per box lemma.
    """

    def point(lcb: int, m: int, t: int) -> bool:
        return lcb > t * m

    return point


# One function object per box lemma, so a caller can count each lemma's calls.
lp1_point = _offset_point()  # c = 2
lp11_point = _offset_point()  # c = 3
lp50_point = _offset_point()  # lp11 at s = 1, v = 3
