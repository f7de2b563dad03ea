"""Complete exact searches for best m-term underapproximations.

A nondecreasing tuple (x_1, ..., x_m) underapproximates theta when
sum(1/x_i) < theta; it is optimal when no other tuple gets strictly
closer. The greedy prefix is always feasible, so it seeds every search,
and ties are returned as full sets (never broken arbitrarily): at
10/17 the greedy pair (2, 12) ties with (3, 4), and that tie is the
only one among reduced fractions with divisibility index <= 3.

Two searches are provided. ``best_two_term`` scans the elementary
complete range for x_1 (any pair summing to at least the greedy sum S
has 1/x_1 >= S/2) and is backed by the sweep kernel backend.
``best_m_term`` is a branch-and-bound over nondecreasing tuples whose
level bounds make it complete: at level i with partial sum s, x_i must
lie in [max(x_{i-1}, floor(1/(theta-s)) + 1), floor((m-i+1)/(B-s))]
where B is the incumbent best sum. Exceeding the node budget raises
SearchInconclusive rather than returning a partial answer.

The interval test ``na23_bounds_check`` that any non-greedy competitor
pair must pass, and the prefix-product certificate
``muirhead_certificate`` implying strict reciprocal-sum domination, are
exposed as filters so sweeps can assert them against search output.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence

from . import _backend, rational
from ._pool import ordered_map, worker_count
from .errors import DomainError, InvariantViolation, SearchInconclusive
from .greedy import expand, upsilon
from .report import VerificationReport


@dataclass(frozen=True)
class UnderapproxResult:
    """Outcome of a complete best m-term search.

    ``optimal_tuples`` holds every maximizing nondecreasing tuple, sorted
    and duplicate-free; ``greedy_is_best`` iff the optimum equals the
    greedy sum, ``unique`` iff there is exactly one maximizer.
    """

    theta: Fraction
    m: int
    greedy_terms: list[int]
    greedy_sum: Fraction
    optimal_tuples: list[tuple[int, ...]]
    optimal_sum: Fraction
    greedy_is_best: bool
    unique: bool

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


@dataclass(frozen=True)
class SearchBounds:
    """Admissible denominator range at one search level (lower <= upper
    whenever the branch gets explored)."""

    level: int
    lower: int
    upper: int


def _require_unit_interval(theta: Fraction) -> None:
    if not 0 < theta <= 1:
        raise DomainError(f"theta must lie in (0, 1], got {theta}")


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
    theta: Fraction, m: int, budget: Optional[int] = None
) -> UnderapproxResult:
    """Complete branch-and-bound for the best m-term underapproximation.

    The incumbent starts at the greedy m-term sum (always feasible), so
    the level-i upper bound floor((m-i+1)/(B-s)) prunes immediately;
    branches that can only tie the incumbent are kept, so the returned
    tuple set is exactly the argmax. ``budget`` caps the number of search
    nodes; exceeding it raises SearchInconclusive.
    """
    _require_unit_interval(theta)
    if m < 1:
        raise DomainError("m must be a positive integer")
    p, q = theta.numerator, theta.denominator

    greedy_terms = expand(theta, m).terms
    bn, bd = 0, 1
    for a in greedy_terms:
        bn, bd = bn * a + bd, bd * a
    g = gcd(bn, bd)
    best = [bn // g, bd // g]
    found: set[tuple[int, ...]] = {tuple(greedy_terms)}
    nodes = 0
    prefix: list[int] = []

    def record(tup: tuple[int, ...], c_num: int, c_den: int) -> None:
        g = gcd(c_num, c_den)
        c_num //= g
        c_den //= g
        lhs = c_num * best[1]
        rhs = best[0] * c_den
        if lhs > rhs:
            best[0], best[1] = c_num, c_den
            found.clear()
            found.add(tup)
        elif lhs == rhs:
            found.add(tup)

    def descend(level: int, prev: int, s_num: int, s_den: int) -> None:
        nonlocal nodes
        # residual theta - s, reduced to keep intermediates small
        r_num = p * s_den - s_num * q
        r_den = q * s_den
        g = gcd(r_num, r_den)
        r_num //= g
        r_den //= g
        lower = max(prev, r_den // r_num + 1)
        remaining = m - level + 1
        if level == m:
            nodes += 1
            if budget is not None and nodes > budget:
                raise SearchInconclusive(nodes, budget)
            record(tuple(prefix) + (lower,), s_num * lower + s_den, s_den * lower)
            return
        x = lower
        while True:
            # keep x only while s + remaining/x can still reach the incumbent
            if (s_num * x + remaining * s_den) * best[1] < best[0] * s_den * x:
                break
            nodes += 1
            if budget is not None and nodes > budget:
                raise SearchInconclusive(nodes, budget)
            prefix.append(x)
            descend(level + 1, x, s_num * x + s_den, s_den * x)
            prefix.pop()
            x += 1

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
    )


def search_bounds_at(
    theta: Fraction, m: int, level: int, prev: int, partial: Fraction, incumbent: Fraction
) -> SearchBounds:
    """The admissible range for x_level given a partial sum and incumbent."""
    residual = theta - partial
    if residual <= 0:
        raise DomainError("partial sum must stay below theta")
    gap = incumbent - partial
    if gap <= 0:
        raise DomainError("incumbent must exceed the partial sum")
    lower = max(prev, residual.denominator // residual.numerator + 1)
    remaining = m - level + 1
    upper = (remaining * gap.denominator) // gap.numerator
    return SearchBounds(level, lower, upper)


def na23_bounds_check(theta: Fraction, x1: int, x2: int) -> bool:
    """Interval test every non-greedy competitor pair must satisfy:

    a1+1 <= x1 <= 2*a1-1 <= x2 < a1*x1/(x1-a1) and x2 <= a2-1,
    where (a1, a2) is the greedy pair of theta. Used as a post-hoc filter
    on search output, never as the search space itself (its premises
    exclude the greedy pair).
    """
    _require_unit_interval(theta)
    a1, a2 = expand(theta, 2).terms
    if (x1, x2) == (a1, a2):
        raise DomainError("the greedy pair itself is excluded from this test")
    return (
        a1 + 1 <= x1 <= 2 * a1 - 1 <= x2
        and x2 * (x1 - a1) < a1 * x1
        and x2 <= a2 - 1
    )


def muirhead_certificate(x: Sequence[int], a: Sequence[int]) -> bool:
    """Prefix-product domination of a by x, implying sum(1/x) < sum(1/a).

    Both tuples must be nondecreasing positive integers of the same
    length, with x != a. When every prefix product of a is <= the
    corresponding prefix product of x the reciprocal sums compare
    strictly; that consequence is asserted before returning True.
    """
    if len(x) != len(a):
        raise DomainError("tuples must have the same length")
    if not x:
        raise DomainError("tuples must be nonempty")
    for t in (x, a):
        if t[0] < 1:
            raise DomainError("entries must be positive integers")
        if any(t[i] > t[i + 1] for i in range(len(t) - 1)):
            raise DomainError("tuples must be nondecreasing")
    if tuple(x) == tuple(a):
        raise DomainError("tuples must differ")
    prod_x, prod_a = 1, 1
    for xi, ai in zip(x, a):
        prod_x *= xi
        prod_a *= ai
        if prod_a > prod_x:
            return False
    sum_x = sum(Fraction(1, xi) for xi in x)
    sum_a = sum(Fraction(1, ai) for ai in a)
    if not sum_x < sum_a:
        raise InvariantViolation(
            f"prefix-product domination without strict sum inequality: {x} vs {a}"
        )
    return True


def _threshold_rows_for_q(q: int) -> list[dict]:
    rows = []
    for p in range(1, q):
        if gcd(p, q) != 1:
            continue
        a1, a2, best_num, best_den, tuples = _backend.two_term_scan(p, q)
        s_num, s_den = a1 + a2, a1 * a2
        g = gcd(s_num, s_den)
        greedy_is_best = (best_num, best_den) == (s_num // g, s_den // g)
        greedy_pair = (a1, a2)
        ties = [t for t in tuples if t != greedy_pair] if greedy_is_best else []
        losses = [] if greedy_is_best else tuples
        rows.append(
            {
                "p": p,
                "q": q,
                "upsilon": upsilon(p, q),
                "greedy_is_best": greedy_is_best,
                "unique": len(tuples) == 1,
                "ties": ties,
                "losses": losses,
            }
        )
    return rows


def threshold_sweep(q_max: int, jobs: int = 1) -> Iterator[dict]:
    """Two-term search rows for every reduced p/q with p < q <= q_max.

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


def verify_threshold_sweep(q_max: int, jobs: int = 1) -> VerificationReport:
    """Check the two-term threshold over all reduced p/q with q <= q_max.

    For upsilon(p, q) <= 3 the greedy pair must be optimal, and uniquely
    so except exactly at 10/17 where the tie set must be {(2,12), (3,4)}.
    For upsilon >= 4, rows where greedy loses are recorded as
    observations without being asserted either way.
    """
    return verify_threshold_rows(threshold_sweep(q_max, jobs=jobs), q_max)


def verify_threshold_rows(rows: Iterable[dict], q_max: int) -> VerificationReport:
    """The threshold check applied to sweep rows, in a single pass."""
    failures: list[tuple] = []
    observations: list[dict] = []
    points = 0
    for row in rows:
        points += 1
        p, q = row["p"], row["q"]
        if row["upsilon"] <= 3:
            if (p, q) == TIE_POINT:
                if row["greedy_is_best"] and row["ties"] == [tuple(TIE_SET[1])]:
                    observations.append(
                        {"p": p, "q": q, "kind": "tie", "ties": [list(t) for t in TIE_SET]}
                    )
                else:
                    failures.append((p, q))
            elif not (row["greedy_is_best"] and row["unique"]):
                failures.append((p, q))
        elif not row["greedy_is_best"]:
            observations.append(
                {
                    "p": p,
                    "q": q,
                    "kind": "loss",
                    "upsilon": row["upsilon"],
                    "losses": [list(t) for t in row["losses"]],
                }
            )
    return VerificationReport(
        lemma_id="threshold",
        range_descr=f"reduced p/q, p < q <= {q_max}",
        points_checked=points,
        failures=sorted(failures),
        expected_exceptions=[],
        observations=observations,
    )
