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
the incumbent best sum. The last two levels are solved exactly by
``_backend.two_term_scan``: for each x_{m-1} the best last term is a
closed form, and a convex lower bound on the error closes the x_{m-1}
range as soon as no further x_{m-1} can reach the incumbent. Exceeding
the node budget raises SearchInconclusive rather than returning a
partial answer. The best two-term underapproximation is
``best_m_term(theta, 2)``; the threshold sweep calls the same kernel
once per row, with no incumbent.
"""

from __future__ import annotations

from contextlib import closing
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Iterator, NamedTuple, Optional

from . import _backend, rational
from ._pool import ordered_map, worker_count
from .counterexamples import fraction_for, select_v
from .errors import DomainError, InvariantViolation, SearchInconclusive
from .greedy import _require_unit_interval, expand, upsilon
from .report import VerificationReport


class UnderapproxResult(NamedTuple):
    """Outcome of a complete best m-term search.

    ``optimal_tuples`` holds every maximizing nondecreasing tuple, sorted
    and duplicate-free; ``greedy_is_best`` iff the optimum equals the
    greedy sum, ``unique`` iff there is exactly one maximizer.

    ``nodes_per_level`` and ``pruned_per_level`` describe the search's
    effort, not its answer: they are left out of the JSON form.
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


def best_m_term(
    theta: Fraction,
    m: int,
    budget: Optional[int] = None,
    digit_guard: Optional[int] = None,
) -> UnderapproxResult:
    """Complete search for the best m-term underapproximation.

    The incumbent starts at the greedy m-term sum B (always feasible) and
    is kept as its error theta - B, so the level-i upper bound
    floor((m-i+1)/(B-s)) prunes immediately; branches that can only tie
    the incumbent are kept, so the returned tuple set is exactly the
    argmax.

    Levels 1..m-2 are enumerated. The last two are one
    ``_backend.two_term_scan`` call for the residual theta - s (reduced)
    from x_{m-1} = max(x_{m-2}, floor(1/(theta-s)) + 1), against the
    incumbent's error; its docstring holds the closed form of the last
    term and the proof of the error floor that closes the x_{m-1} range.

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

    _, greedy_terms, error, _ = expand(theta, m, digit_guard=digit_guard)
    e_num, e_den = error.numerator, error.denominator  # theta - B for the greedy sum B
    found: set[tuple[int, ...]] = {tuple(greedy_terms)}
    nodes = [0] * (m - 1)
    pruned = [0] * (m - 1)
    total = 0
    prefix: list[int] = []

    def descend(level: int, prev: int, s_num: int, s_den: int) -> None:
        nonlocal total, e_num, e_den
        # residual theta - s, reduced to keep intermediates small
        r_num = p * s_den - s_num * q
        r_den = q * s_den
        g = gcd(r_num, r_den)
        r_num //= g
        r_den //= g
        x = max(prev, r_den // r_num + 1)
        if level == m - 1:
            cap = None if budget is None else x + budget - total - 1
            n_num, n_den, pairs, stop, cut, done = _backend.two_term_scan(
                r_num, r_den, x, e_num, e_den, cap
            )
            total += stop - x
            if not done:
                raise SearchInconclusive(total + 1, budget)  # the node at stop
            nodes[level - 1] += stop - x
            pruned[level - 1] += cut
            if pairs:
                if n_num * e_den < e_num * n_den:
                    g = gcd(n_num, n_den)
                    e_num, e_den = n_num // g, n_den // g
                    found.clear()
                found.update(tuple(prefix) + pair for pair in pairs)
            return
        remaining = m - level + 1
        # keep x only while s + remaining/x can still reach the incumbent,
        # i.e. while theta - s - remaining/x <= theta - B
        while (r_num * x - remaining * r_den) * e_den <= e_num * r_den * x:
            total += 1
            if budget is not None and total > budget:
                raise SearchInconclusive(total, budget)
            nodes[level - 1] += 1
            prefix.append(x)
            descend(level + 1, x, s_num * x + s_den, s_den * x)
            prefix.pop()
            x += 1

    if m > 1:
        descend(1, 2, 0, 1)

    optimal_sum = theta - Fraction(e_num, e_den)
    greedy_sum = theta - error
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
        a1 = q // p + 1
        tuples = scan(p, q, a1, p, q)[2]
        unique = len(tuples) == 1
        # every optimal pair with x1 = a1 is the greedy pair, and none has x1 < a1
        if tuples[0][0] == a1:
            rows.append((p, q, upsilon(p, q), True, unique, () if unique else tuple(tuples[1:]), ()))
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
    count; with ``jobs > 1`` they are yielded a chunk of 16 q at a time, as
    each chunk is done (see ``_pool.ordered_map``). The arguments are
    checked before the first row is asked for. Closing the iterator early
    stops the workers.
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
TIE_SET = ((2, 12), (3, 4))


def _constructed_losses(q_max: int) -> set[tuple[int, int]]:
    """The p/q of ``counterexamples.construct(k)`` with q <= q_max, k >= 4.

    Each is ``fraction_for(k, v)`` with v = select_v(k), reduced since k
    and (k+1)v - 1 are prime to k+1; q >= k^2, so k <= isqrt(q_max).
    ``construct`` itself is not called: it re-derives the greedy pair.
    """
    losses = set()
    for k in range(4, isqrt(q_max) + 1):
        p, q = fraction_for(k, select_v(k)[0])
        if q <= q_max:
            losses.add((p, q))
    return losses


def verify_threshold_rows(rows: Iterable[tuple], q_max: int) -> VerificationReport:
    """Check the two-term threshold on ``threshold_sweep`` rows, in a single pass.

    For upsilon(p, q) <= 3 the greedy pair must be optimal, and uniquely
    so except exactly at 10/17 where the tie set must be {(2,12), (3,4)}.
    For upsilon >= 4, rows where greedy loses are recorded as
    observations, which hold the rows' own pair tuples, without being
    asserted either way, except at the constructed counterexamples:
    greedy provably loses at every
    ``_constructed_losses(q_max)`` fraction, so one that is not a loss row
    raises InvariantViolation once the rows run out. Every tie and loss
    pair (x1, x2), at any upsilon, must lie in the interval proved for
    competitors of the greedy pair (a1, a2):
    a1+1 <= x1 <= 2a1-1 <= x2 < a1*x1/(x1-a1) and x2 <= a2-1; one outside
    raises InvariantViolation at once.
    """
    failures: list[tuple] = []
    observations: list[dict] = []
    points = 0
    unmet = _constructed_losses(q_max)
    for points, (p, q, ups, greedy_is_best, unique, ties, losses) in enumerate(rows, 1):
        if ties or losses:
            a1 = q // p + 1
            a2 = q * a1 // (p * a1 - q) + 1
            for x1, x2 in ties or losses:
                if not (a1 + 1 <= x1 <= 2 * a1 - 1 <= x2 <= a2 - 1 and x2 * (x1 - a1) < a1 * x1):
                    raise InvariantViolation(
                        f"optimal pair ({x1}, {x2}) of {p}/{q} is outside the interval "
                        f"of the greedy pair ({a1}, {a2})"
                    )
        if ups <= 3:
            if (p, q) == TIE_POINT:
                if greedy_is_best and ties == TIE_SET[1:]:
                    observations.append({"p": p, "q": q, "kind": "tie", "ties": TIE_SET})
                else:
                    failures.append((p, q))
            elif not (greedy_is_best and unique):
                failures.append((p, q))
        elif not greedy_is_best:
            unmet.discard((p, q))
            observations.append(
                {"p": p, "q": q, "kind": "loss", "upsilon": ups, "losses": losses}
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
        observations=observations,
    )
