"""Complete exact searches for best m-term underapproximations.

A nondecreasing tuple (x_1, ..., x_m) underapproximates theta when
sum(1/x_i) < theta; it is optimal when no other tuple gets strictly
closer. The greedy prefix is always feasible, so it seeds every search,
and ties are returned as full sets (never broken arbitrarily): at
10/17 the greedy pair (2, 12) ties with (3, 4), and that tie is the
only one among reduced fractions with divisibility index <= 3.

``best_m_term`` is a branch-and-bound over nondecreasing tuples. At
level i < m - 1 with partial sum s it tries every x_i in
[max(x_{i-1}, floor(1/(theta-s)) + 1), floor((m-i+1)/(B-s))], where B is
the incumbent best sum. The last two levels are solved exactly: for each
x_{m-1} the best last term is a closed form, and a convex lower bound on
the error closes the x_{m-1} range as soon as no further x_{m-1} can
reach the incumbent. Exceeding the node budget raises SearchInconclusive
rather than returning a partial answer. The closed form and the bound
are ``_backend._closing_term`` and ``_backend._error_floor``. The sweep
kernel ``_backend.two_term_scan`` is the same solver at m = 2 and
partial sum 0, with both written out; it backs ``best_two_term`` and the
threshold sweep.
"""

from __future__ import annotations

from contextlib import closing
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Iterator, NamedTuple, Optional

from . import _backend, rational
from ._backend import _closing_term, _error_floor
from ._pool import ordered_map, worker_count
from .counterexamples import select_v
from .errors import DomainError, InvariantViolation, SearchInconclusive
from .greedy import _require_unit_interval, expand, upsilon
from .report import VerificationReport


class UnderapproxResult(NamedTuple):
    """Outcome of a complete best m-term search.

    ``optimal_tuples`` holds every maximizing nondecreasing tuple, sorted
    and duplicate-free; ``greedy_is_best`` iff the optimum equals the
    greedy sum, ``unique`` iff there is exactly one maximizer.

    ``nodes_per_level`` and ``pruned_per_level`` describe the search's
    effort, not its answer: they are left out of equality and of the
    JSON form.
    """

    theta: Fraction
    m: int
    greedy_terms: list[int]
    greedy_sum: Fraction
    optimal_tuples: list[tuple[int, ...]]
    optimal_sum: Fraction
    greedy_is_best: bool
    unique: bool
    nodes_per_level: tuple[int, ...] = ()
    pruned_per_level: tuple[int, ...] = ()

    # tuple.__ne__ would compare the counts too, so both are defined
    def __eq__(self, other):
        return isinstance(other, UnderapproxResult) and self[:8] == other[:8]

    def __ne__(self, other):
        return not self == other

    def to_json_dict(self) -> dict:
        return {
            "theta": rational.to_json(self.theta),
            "m": self.m,
            "greedy_terms": [str(t) for t in self.greedy_terms],
            "greedy_sum": rational.to_json(self.greedy_sum),
            "optimal_tuples": [[str(x) for x in t] for t in self.optimal_tuples],
            "optimal_sum": rational.to_json(self.optimal_sum),
            "greedy_is_best": self.greedy_is_best,
            "unique": self.unique,
        }


def best_two_term(theta: Fraction) -> UnderapproxResult:
    """Best two-term underapproximation by exhaustive scan, all ties returned."""
    _require_unit_interval(theta)
    a1, a2, best_num, best_den, tuples = _backend.two_term_scan(
        theta.numerator, theta.denominator
    )
    greedy_sum = Fraction(1, a1) + Fraction(1, a2)
    optimal_sum = Fraction(best_num, best_den)
    return UnderapproxResult(
        theta=theta,
        m=2,
        greedy_terms=[a1, a2],
        greedy_sum=greedy_sum,
        optimal_tuples=tuples,
        optimal_sum=optimal_sum,
        greedy_is_best=optimal_sum == greedy_sum,
        unique=len(tuples) == 1,
    )


def best_m_term(
    theta: Fraction,
    m: int,
    budget: Optional[int] = None,
    digit_guard: Optional[int] = None,
) -> UnderapproxResult:
    """Complete search for the best m-term underapproximation.

    The incumbent starts at the greedy m-term sum (always feasible), so
    the level-i upper bound floor((m-i+1)/(B-s)) prunes immediately;
    branches that can only tie the incumbent are kept, so the returned
    tuple set is exactly the argmax.

    Levels 1..m-2 are enumerated. The last two are solved exactly: with
    residual r = a/b = theta - s (reduced) after the first m-2 terms, each
    x = x_{m-1} >= max(x_{m-2}, floor(b/a) + 1) has d = a*x - b > 0, and
    its best last term is y = max(x, floor(b*x/d) + 1), the least y >= x
    with 1/y < r - 1/x = d/(b*x). Its error is r - 1/x - 1/y =
    (d*y - b*x)/(b*x*y). At x = floor(b/a) + 1, d is the divisibility
    index upsilon(a, b), and d grows by a per step.

    The x range is closed by a bound on that error. With y unconstrained,
    y = floor(b*x/d) + 1 gives the error (d - (b*x mod d))/(b*x*y) >= 1/g(x),
    because the numerator is >= 1 and y <= b*x/d + 1, so
    b*x*y <= b^2 x^2/d + b*x = g(x), where

        g(x) = b^2 x^2/(a*x - b) + b*x = b*x*(b*x + d)/d.

    Forcing y = x (when floor(b*x/d) + 1 < x) only lowers the sum, so the
    error of the pair actually recorded is >= 1/g(x) too. Write t = a*x - b
    > 0: then g = (b/a)^2 (t + 2b + b^2/t) + b*x, a convex function of t
    plus a linear one, so g is convex on x > b/a. On [X, U] it therefore
    stays <= max(g(X), g(U)), and every x in [X, U] has error
    >= 1/max(g(X), g(U)). U = floor(2/(B-s)) is the level's range bound.
    When that error floor is strictly above the incumbent's error
    theta - B, no x in [X, U] can beat or tie the incumbent, and the range
    is closed at X. U, theta - B and g(U) are recomputed whenever the
    incumbent improves. All of this is integer cross-multiplication.

    ``budget`` caps the number of search nodes, one per x tried at levels
    1..m-1; exceeding it raises SearchInconclusive. ``digit_guard`` is
    passed to the greedy expansion that seeds the incumbent (the library
    default is no cap).
    """
    _require_unit_interval(theta)
    if m < 1:
        raise DomainError("m must be a positive integer")
    if budget is not None and budget < 1:
        raise DomainError("budget must be a positive integer")
    p, q = theta.numerator, theta.denominator

    greedy_terms = expand(theta, m, digit_guard=digit_guard).terms
    bn, bd = 0, 1
    for a in greedy_terms:
        bn, bd = bn * a + bd, bd * a
    g = gcd(bn, bd)
    best = [bn // g, bd // g]
    found: set[tuple[int, ...]] = {tuple(greedy_terms)}
    nodes = [0] * (m - 1)
    pruned = [0] * (m - 1)
    total = 0
    prefix: list[int] = []

    def tick(level: int) -> None:
        nonlocal total
        total += 1
        if budget is not None and total > budget:
            raise SearchInconclusive(total, budget)
        nodes[level - 1] += 1

    def record(tup: tuple[int, ...], c_num: int, c_den: int) -> bool:
        """Add a candidate sum; True when it beats the incumbent."""
        g = gcd(c_num, c_den)
        c_num //= g
        c_den //= g
        lhs = c_num * best[1]
        rhs = best[0] * c_den
        if lhs > rhs:
            best[0], best[1] = c_num, c_den
            found.clear()
            found.add(tup)
            return True
        if lhs == rhs:
            found.add(tup)
        return False

    def descend(level: int, prev: int, s_num: int, s_den: int) -> None:
        # residual theta - s, reduced to keep intermediates small
        r_num = p * s_den - s_num * q
        r_den = q * s_den
        g = gcd(r_num, r_den)
        r_num //= g
        r_den //= g
        x = max(prev, r_den // r_num + 1)
        if level == m - 1:
            last_two(x, s_num, s_den, r_num, r_den)
            return
        remaining = m - level + 1
        # keep x only while s + remaining/x can still reach the incumbent
        while (s_num * x + remaining * s_den) * best[1] >= best[0] * s_den * x:
            tick(level)
            prefix.append(x)
            descend(level + 1, x, s_num * x + s_den, s_den * x)
            prefix.pop()
            x += 1

    def last_two(x: int, s_num: int, s_den: int, a: int, b: int) -> None:
        level = m - 1
        head = tuple(prefix)
        upper = None  # None until the limits are computed for the current incumbent
        while True:
            if upper is None:
                gap = best[0] * s_den - s_num * best[1]  # (B - s) * bd * s_den
                if gap > 0:  # else B <= s, and the first record lifts B above s
                    upper = 2 * best[1] * s_den // gap
                    e_num, e_den = p * best[1] - best[0] * q, q * best[1]  # theta - B
                    g_num, g_den = _error_floor(a, b, upper)
                    far = g_num * e_num < g_den * e_den  # 1/g(U) > theta - B
            if upper is not None:
                if x > upper:
                    return
                if far:
                    g_num, g_den = _error_floor(a, b, x)
                    if g_num * e_num < g_den * e_den:
                        pruned[level - 1] += upper - x + 1
                        return
            tick(level)
            y, err_num, err_den = _closing_term(a, b, x)
            if record(head + (x, y), p * err_den - err_num * q, q * err_den):
                upper = None
            x += 1

    if m > 1:
        descend(1, 2, 0, 1)

    optimal_sum = Fraction(best[0], best[1])
    greedy_sum = Fraction(bn, bd)
    tuples = sorted(found)
    return UnderapproxResult(
        theta=theta,
        m=m,
        greedy_terms=greedy_terms,
        greedy_sum=greedy_sum,
        optimal_tuples=tuples,
        optimal_sum=optimal_sum,
        greedy_is_best=optimal_sum == greedy_sum,
        unique=len(tuples) == 1,
        nodes_per_level=tuple(nodes),
        pruned_per_level=tuple(pruned),
    )


def _threshold_rows_for_q(q: int) -> list[tuple]:
    scan = _backend.two_term_scan
    rows = []
    for p in range(1, q):
        if gcd(p, q) != 1:
            continue
        a1, _, _, _, tuples = scan(p, q)
        unique = len(tuples) == 1
        # every optimal pair with x1 = a1 is the greedy pair, and none has x1 < a1
        if tuples[0][0] == a1:
            ties = () if unique else tuple(tuples[1:])
            rows.append((p, q, upsilon(p, q), True, unique, ties, ()))
        else:
            rows.append((p, q, upsilon(p, q), False, unique, (), tuple(tuples)))
    return rows


def threshold_sweep(q_max: int, jobs: int = 1) -> Iterator[tuple]:
    """Two-term search rows for every reduced p/q with p < q <= q_max.

    Each row is a plain tuple
    ``(p, q, upsilon, greedy_is_best, unique, ties, losses)``: ``ties`` are
    the optimal pairs (x1, x2) other than the greedy pair when greedy is
    optimal, ``losses`` every optimal pair when it is not, each a tuple of
    pairs and ``()`` when there are none. Plain tuples keep the rows cheap
    to build, to pickle between ``--jobs`` workers, and to unpack.

    Rows are yielded one at a time, ordered by (q, p) regardless of worker
    count; with ``jobs > 1`` they are yielded as the workers' chunks
    arrive. The arguments are checked before the first row is asked for.
    Closing the iterator early cancels the chunks not yet started.
    """
    if q_max < 2:
        raise DomainError("q_max must be >= 2")
    chunks = ordered_map(
        _threshold_rows_for_q, range(2, q_max + 1), worker_count(jobs), chunksize=16
    )
    return _flatten(chunks)


def _flatten(chunks: Iterator[list]) -> Iterator:
    with closing(chunks):
        for chunk in chunks:
            yield from chunk


# the single two-term tie below the threshold, and its exact tie set
TIE_POINT = (10, 17)
TIE_SET = [(2, 12), (3, 4)]


def _constructed_losses(q_max: int) -> set[tuple[int, int]]:
    """The p/q of ``counterexamples.construct(k)`` with q <= q_max, k >= 4.

    Each is (k+1)/(k((k+1)v - 1)) with v = select_v(k), reduced since k
    and (k+1)v - 1 are prime to k+1; q >= k^2, so k <= isqrt(q_max).
    ``construct`` itself is not called: it re-derives the greedy pair.
    """
    losses = set()
    for k in range(4, isqrt(q_max) + 1):
        v, _ = select_v(k)
        q = k * ((k + 1) * v - 1)
        if q <= q_max:
            losses.add((k + 1, q))
    return losses


def verify_threshold_rows(rows: Iterable[tuple], q_max: int) -> VerificationReport:
    """Check the two-term threshold on ``threshold_sweep`` rows, in a single pass.

    For upsilon(p, q) <= 3 the greedy pair must be optimal, and uniquely
    so except exactly at 10/17 where the tie set must be {(2,12), (3,4)}.
    For upsilon >= 4, rows where greedy loses are recorded as
    observations without being asserted either way, except at the
    constructed counterexamples: greedy provably loses at every
    ``_constructed_losses(q_max)`` fraction, so one that is not a loss row
    raises InvariantViolation once the rows run out.
    """
    failures: list[tuple] = []
    observations: list[dict] = []
    points = 0
    unmet = _constructed_losses(q_max)
    for p, q, ups, greedy_is_best, unique, ties, losses in rows:
        points += 1
        if ups <= 3:
            if (p, q) == TIE_POINT:
                if greedy_is_best and ties == tuple(TIE_SET[1:]):
                    observations.append(
                        {"p": p, "q": q, "kind": "tie", "ties": [list(t) for t in TIE_SET]}
                    )
                else:
                    failures.append((p, q))
            elif not (greedy_is_best and unique):
                failures.append((p, q))
        elif not greedy_is_best:
            unmet.discard((p, q))
            observations.append(
                {
                    "p": p,
                    "q": q,
                    "kind": "loss",
                    "upsilon": ups,
                    "losses": [list(t) for t in losses],
                }
            )
    if unmet:
        raise InvariantViolation(
            f"greedy is not beaten at the constructed counterexamples {sorted(unmet)}"
        )
    return VerificationReport(
        lemma_id="threshold",
        range_descr=f"reduced p/q, p < q <= {q_max}",
        points_checked=points,
        failures=sorted(failures),
        expected_exceptions=[],
        observations=observations,
    )
