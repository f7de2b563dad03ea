"""Output checks that do not trust the program's own verdicts.

Every expected value here is derived by the benchmark itself, by a
different method than the program uses: lemma box sizes by walking
multiples instead of testing divisors, threshold row sets from a totient
sieve, upsilon from a residue, greedy terms and tuple sums with
``Fraction``. On top of that, each stdout must hash to the committed
reference for its argv (``reference.json``).

``check()`` returns an ``Outcome`` and never raises on bad output: any
mismatch is a failed operation with a one-line reason.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

EXIT_OK = 0
EXIT_INCONCLUSIVE = 4

OFFSET3_EXCEPTIONS = [[17, 2], [61, 8]]
# suite -> (offset c in u | q+c, least quotient (q+c)/u, points per (u, s), first q)
LEMMA_BOXES = {"lp1": (2, 3, 2, 4), "lp11": (3, 4, 3, 5), "lp50": (3, 4, None, 5)}
LEMMA_EXCEPTIONS = {"lp1": [], "lp11": OFFSET3_EXCEPTIONS, "lp50": OFFSET3_EXCEPTIONS}

TIE_FRACTION = (10, 17)
TIE_SET = {(2, 12), (3, 4)}

THRESHOLD_CSV_HEADER = "p,q,upsilon,greedy_is_best,unique,ties,losses"


class BadOutput(Exception):
    """An output disagrees with what the benchmark derived on its own."""


@dataclass
class Outcome:
    ok: bool
    # work units this invocation completed: lemma points, threshold rows,
    # or 1 for a decided m-term search
    work: int
    decided: bool
    sha256: str
    reason: str = ""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(argv, exit_code: int, stdout: bytes, stderr: bytes, reference) -> Outcome:
    """Check one invocation's exit code, output content and output hash.

    ``reference`` maps ``" ".join(argv)`` to ``{"exit": .., "sha256": ..}``;
    pass ``None`` to skip the hash comparison (tiny test sizes).
    """
    digest = sha256(stdout)
    try:
        work, decided = _check_content(list(argv), exit_code, stdout, stderr)
        if reference is not None:
            _check_reference(argv, exit_code, digest, reference)
    except (BadOutput, ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(False, 0, False, digest, f"{type(exc).__name__}: {exc}"[:200])
    return Outcome(True, work, decided, digest)


def _check_reference(argv, exit_code: int, digest: str, reference) -> None:
    key = " ".join(argv)
    if key not in reference:
        raise BadOutput(f"no reference output for {key!r}")
    ref = reference[key]
    if ref["exit"] == exit_code:
        if ref["sha256"] != digest:
            raise BadOutput(f"stdout hash {digest[:12]} != reference {ref['sha256'][:12]}")
    elif {ref["exit"], exit_code} != {EXIT_OK, EXIT_INCONCLUSIVE} or argv[0] != "best":
        # only a budgeted search may change between decided and inconclusive
        raise BadOutput(f"exit {exit_code}, reference exit {ref['exit']}")


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise BadOutput(what)


def _check_content(argv, exit_code, stdout, stderr) -> tuple[int, bool]:
    fmt = "json"
    if argv[0] == "--format":
        fmt, argv = argv[1], argv[2:]
    command = argv[0]
    if command == "verify" and argv[1] in LEMMA_BOXES:
        return _check_lemma(argv[1], _flag(argv, "--q-max"), exit_code, stdout), True
    if command == "verify" and argv[1] == "threshold":
        q_max = _flag(argv, "--q-max")
        if fmt == "csv":
            return _check_threshold_csv(q_max, exit_code, stdout), True
        return _check_threshold_json(q_max, exit_code, stdout), True
    if command == "best":
        decided = _check_best(int(argv[1]), int(argv[2]), _flag(argv, "--m"),
                              exit_code, stdout, stderr)
        return int(decided), decided
    if command == "upsilon":
        _check_upsilon(int(argv[1]), int(argv[2]), exit_code, stdout)
        return 0, True
    raise BadOutput(f"no check defined for {' '.join(argv)!r}")


def _flag(argv, name: str) -> int:
    return int(argv[argv.index(name) + 1])


# -- lemma sweeps -------------------------------------------------------------


@lru_cache(maxsize=None)
def lemma_box_size(suite: str, q_max: int) -> int:
    """Points in the suite's (q, u, s, v) box, counted over multiples.

    A point has u >= 2, a quotient k = (q+c)/u >= k_min, first_q <= q <=
    q_max; it contributes (u-1) * per_s points (s < u, v in a fixed set),
    or exactly 1 for lp50 (s = 1, v = 3 fixed).
    """
    c, k_min, per_s, first_q = LEMMA_BOXES[suite]
    total = 0
    u = 2
    while u * k_min - c <= q_max:
        k = max(k_min, -(-(first_q + c) // u))
        while u * k - c <= q_max:
            total += 1 if per_s is None else per_s * (u - 1)
            k += 1
        u += 1
    return total


def _check_lemma(suite: str, q_max: int, exit_code: int, stdout: bytes) -> int:
    _expect(exit_code == EXIT_OK, f"exit {exit_code}")
    report = json.loads(stdout)
    _expect(report["lemma_id"] == suite, f"lemma_id {report['lemma_id']!r}")
    _expect(report["passed"] is True, "passed is not true")
    expected = LEMMA_EXCEPTIONS[suite]
    _expect(report["failures"] == expected, f"failures {report['failures']}")
    _expect(report["expected_exceptions"] == expected, "expected_exceptions differ")
    points = lemma_box_size(suite, q_max)
    _expect(report["points_checked"] == points,
            f"points_checked {report['points_checked']} != box size {points}")
    return points


# -- threshold sweep -------------------------------------------------------------


@lru_cache(maxsize=8)
def reduced_fractions(q_max: int) -> tuple[tuple[int, int], ...]:
    """Every reduced p/q with 1 <= p < q <= q_max, ordered by (q, p)."""
    return tuple((p, q) for q in range(2, q_max + 1) for p in range(1, q) if gcd(p, q) == 1)


@lru_cache(maxsize=8)
def totient_sum(q_max: int) -> int:
    """Sum of phi(q) over 2 <= q <= q_max, from a sieve."""
    phi = list(range(q_max + 1))
    for n in range(2, q_max + 1):
        if phi[n] == n:  # n is prime
            for k in range(n, q_max + 1, n):
                phi[k] -= phi[k] // n
    return sum(phi[2:])


def upsilon(p: int, q: int) -> int:
    """Least m >= 1 with p | q + m, as a residue."""
    return (-q) % p or p


def greedy_terms(theta: Fraction, m: int) -> list[int]:
    terms = []
    for _ in range(m):
        a = theta.denominator // theta.numerator + 1
        terms.append(a)
        theta -= Fraction(1, a)
    return terms


def _check_threshold_rows(q_max: int, rows) -> int:
    """Rows are (p, q, upsilon, greedy_is_best, unique, ties) tuples.

    Checks the row set against the sieve, each upsilon against its
    residue, and the paper's two-term threshold: for upsilon <= 3 greedy
    is optimal and unique, except at 10/17, the only tie there, with tie
    set {(2, 12), (3, 4)}.
    """
    _expect(len(rows) == totient_sum(q_max),
            f"{len(rows)} rows, sum of phi(q) is {totient_sum(q_max)}")
    keys = tuple((row[0], row[1]) for row in rows)
    _expect(keys == reduced_fractions(q_max), "rows are not the reduced p/q in (q, p) order")
    for p, q, ups, greedy_is_best, unique, ties in rows:
        _expect(ups == upsilon(p, q), f"upsilon({p}, {q}) = {ups}")
        if (p, q) == TIE_FRACTION:
            pair = tuple(greedy_terms(Fraction(p, q), 2))
            _expect(greedy_is_best and not unique and {pair, *ties} == TIE_SET,
                    f"tie at 10/17 is {pair} + {ties}")
        elif ups <= 3:
            _expect(greedy_is_best and unique and not ties, f"greedy not uniquely best at {p}/{q}")
        elif ties:
            _expect(greedy_is_best and not unique, f"tie without a shared optimum at {p}/{q}")
    return len(rows)


def _check_threshold_json(q_max: int, exit_code: int, stdout: bytes) -> int:
    _expect(exit_code == EXIT_OK, f"exit {exit_code}")
    payload = json.loads(stdout)
    _expect(payload["lemma_id"] == "threshold", "lemma_id")
    _expect(payload["passed"] is True and payload["failures"] == [], "report did not pass")
    _expect(payload["points_checked"] == len(payload["rows"]), "points_checked != rows")
    rows = [
        (r["p"], r["q"], r["upsilon"], r["greedy_is_best"], r["unique"],
         [tuple(t) for t in r["ties"]])
        for r in payload["rows"]
    ]
    return _check_threshold_rows(q_max, rows)


def _check_threshold_csv(q_max: int, exit_code: int, stdout: bytes) -> int:
    _expect(exit_code == EXIT_OK, f"exit {exit_code}")
    text = stdout.decode("ascii")
    header, _, body = text.partition("\n")
    _expect(header == THRESHOLD_CSV_HEADER, f"header {header!r}")
    truth = {"True": True, "False": False}
    rows = [
        (int(r[0]), int(r[1]), int(r[2]), truth[r[3]], truth[r[4]],
         [tuple(int(x) for x in t.split(":")) for t in r[5].split(";") if t])
        for r in csv.reader(io.StringIO(body))
    ]
    return _check_threshold_rows(q_max, rows)


# -- m-term search and the set-up command -------------------------------------


def _fraction(obj) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


def _check_best(p: int, q: int, m: int, exit_code, stdout, stderr) -> bool:
    """True when the search decided; exit 4 (inconclusive) is a valid answer."""
    if exit_code == EXIT_INCONCLUSIVE:
        _expect(stdout == b"", "inconclusive search wrote to stdout")
        _expect(stderr.startswith(b"inconclusive"), "inconclusive without its message")
        return False
    _expect(exit_code == EXIT_OK, f"exit {exit_code}")
    res = json.loads(stdout)
    theta = Fraction(p, q)
    _expect(_fraction(res["theta"]) == theta and res["m"] == m, "theta or m")
    greedy = [int(x) for x in res["greedy_terms"]]
    _expect(greedy == greedy_terms(theta, m), f"greedy terms {greedy}")
    greedy_sum = _fraction(res["greedy_sum"])
    _expect(greedy_sum == sum(Fraction(1, a) for a in greedy), "greedy_sum")
    best = _fraction(res["optimal_sum"])
    _expect(greedy_sum <= best < theta, f"need greedy <= {best} < theta")
    tuples = [tuple(int(x) for x in t) for t in res["optimal_tuples"]]
    _expect(tuples and tuples == sorted(set(tuples)), "tuples not sorted and distinct")
    for t in tuples:
        _expect(len(t) == m and list(t) == sorted(t) and t[0] >= 1, f"tuple {t}")
        _expect(sum(Fraction(1, x) for x in t) == best, f"tuple {t} misses optimal_sum")
    _expect(res["greedy_is_best"] == (best == greedy_sum), "greedy_is_best")
    _expect(res["unique"] == (len(tuples) == 1), "unique")
    return True


def _check_upsilon(p: int, q: int, exit_code: int, stdout: bytes) -> None:
    _expect(exit_code == EXIT_OK, f"exit {exit_code}")
    res = json.loads(stdout)
    _expect((res["p"], res["q"], res["upsilon"]) == (p, q, upsilon(p, q)), "upsilon")
