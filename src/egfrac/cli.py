"""Command-line front end.

Every operation is a subcommand with machine-readable output on stdout
(diagnostics go to stderr). Fractions are passed as two integer
arguments, reduced internally, and the reduced pair is echoed in the
output. Output is deterministic given the flags; ``--jobs`` only affects
wall time.

Exit codes (stable API): 0 ok, 2 domain error, 3 digit guard exceeded,
4 search inconclusive, 5 verification failure, 6 invariant violation (a
proved identity failed: a bug, reported in one stderr line), 141 stdout
closed by its reader before the output was written (nothing on stderr).

The tables, ``verify threshold`` and ``phi-samples`` in csv or json, are
written through one generator, ``_written``, in batches of fixed layouts
byte for byte equal to what ``csv.writer`` and ``json.dump(indent=2)``
write. The json threshold report spools its rows, since its keys come first.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack, closing
from fractions import Fraction
from math import gcd

from . import counterexamples, greedy, lemmas, underapprox
from ._pool import worker_count
from .errors import (
    DigitGuardExceeded,
    DomainError,
    InvariantViolation,
    SearchInconclusive,
)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_GUARD = 3
EXIT_INCONCLUSIVE = 4
EXIT_VERIFY_FAILED = 5
EXIT_INVARIANT = 6
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for `cmd | head`

DEFAULT_DIGIT_GUARD = 10_000

_ROWS_PER_WRITE = 2048  # table rows encoded per write by _written


def _reduced(p: int, q: int) -> tuple[int, int]:
    if q == 0:
        raise DomainError("denominator must be nonzero")
    if p < 1 or q < 1:
        raise DomainError("expected a positive fraction p q")
    g = gcd(p, q)
    return p // g, q // g


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _emit_plain(lines) -> None:
    for line in lines:
        print(line)


def cmd_expand(args) -> int:
    p, q = _reduced(args.p, args.q)
    guard = None if args.no_guard else args.digit_guard
    exp = greedy.expand(Fraction(p, q), args.m, digit_guard=guard)
    profile = greedy.upsilon_profile(p, q)
    payload = exp.to_json_dict()
    payload.update({"p": p, "q": q, "ell": profile.ell, "delta": profile.delta})
    if args.format == "plain":
        _emit_plain(
            [
                f"theta = {p}/{q}  (ell = {profile.ell}, delta = {profile.delta})",
                "terms: " + " ".join(str(t) for t in exp.terms),
                f"error = {exp.error}",
                f"recurrence_start = {exp.recurrence_start}",
            ]
        )
    else:
        _emit_json(payload)
    return EXIT_OK


def cmd_best(args) -> int:
    p, q = _reduced(args.p, args.q)
    result = underapprox.best_m_term(
        Fraction(p, q), args.m, budget=args.budget, digit_guard=DEFAULT_DIGIT_GUARD
    )
    if args.format == "plain":
        tuples = ", ".join(str(t) for t in result.optimal_tuples)
        _emit_plain(
            [
                f"theta = {p}/{q}, m = {result.m}",
                f"greedy = {tuple(result.greedy_terms)} sum {result.greedy_sum}",
                f"optimal sum {result.optimal_sum}: {tuples}",
                f"greedy_is_best = {result.greedy_is_best}, unique = {result.unique}",
            ]
        )
    else:
        _emit_json(result.to_json_dict())
    return EXIT_OK


def cmd_step(args) -> int:
    p, q = _reduced(args.p, args.q)
    report = greedy.step_report(
        Fraction(p, q), args.m, args.n, digit_guard=DEFAULT_DIGIT_GUARD
    )
    if args.format == "plain":
        _emit_plain(
            [
                f"theta = {p}/{q}, m = {report.m}, n = {report.n}",
                f"a_m = {report.a_m}, b_m = {report.b_m}, phi = {report.phi_value}",
                f"conditions hold: {report.holds}",
            ]
        )
    else:
        _emit_json(report.to_json_dict())
    return EXIT_OK


def cmd_upsilon(args) -> int:
    profile = greedy.upsilon_profile(args.p, args.q)
    if args.format == "plain":
        _emit_plain(
            [
                f"p/q = {profile.p}/{profile.q}",
                f"upsilon = {profile.upsilon}, ell = {profile.ell}, "
                f"delta = {profile.delta}, family = {profile.family}",
            ]
        )
    else:
        _emit_json(profile.to_json_dict())
    return EXIT_OK


def cmd_construct(args) -> int:
    ce = counterexamples.construct(args.k)
    if args.format == "plain":
        _emit_plain(
            [
                f"k = {ce.k}: p/q = {ce.p}/{ce.q} (v = {ce.v}, s = {ce.s})",
                f"greedy pair {ce.greedy_pair} beaten by {ce.beating_pair}",
                f"margin = {ce.margin}",
            ]
        )
    else:
        _emit_json(ce.to_json_dict())
    return EXIT_OK


def _written(rows, encode, write, sep=""):
    """Yield each row unchanged, writing ``encode(batch)`` per batch of rows.

    A batch is ``_ROWS_PER_WRITE`` rows, or the rows left at the end, and
    ``sep`` goes between batches. ``encode`` gets the whole batch, so the
    per-row work stays inside its list comprehension.
    """
    batch = []
    lead = ""
    for row in rows:
        batch.append(row)
        if len(batch) == _ROWS_PER_WRITE:
            write(lead + encode(batch))
            lead = sep
            batch = []
        yield row
    if batch:
        write(lead + encode(batch))


# One phi-samples row as json.dumps(indent=2) lays out its item of the
# list: every value is a string of decimal digits, so nothing is escaped.
_PHI_JSON = (
    '\n  {\n    "theta": {\n      "num": "%d",\n      "den": "%d"\n    },'
    '\n    "phi": {\n      "num": "%d",\n      "den": "%d"\n    }\n  }'
)


def cmd_phi_samples(args) -> int:
    denom = args.denom
    if denom < 2:
        raise DomainError("--denom must be >= 2")
    lo = args.min_num if args.min_num is not None else (denom + 9) // 10
    if not 1 <= lo <= denom:
        raise DomainError("--min-num must be between 1 and --denom")
    thetas = (Fraction(num, denom) for num in range(lo, denom + 1))  # never empty: lo <= denom
    rows = ((*t.as_integer_ratio(), *greedy.phi(t).as_integer_ratio()) for t in thetas)
    write = sys.stdout.write
    if args.format == "json":
        write("[")
        for _ in _written(rows, lambda rs: ",".join([_PHI_JSON % r for r in rs]), write, ","):
            pass
        write("\n]\n")
    else:
        write("theta_num,theta_den,phi_num,phi_den\n")
        for _ in _written(rows, lambda rs: "".join(["%d,%d,%d,%d\n" % r for r in rs]), write):
            pass
    return EXIT_OK


# The threshold rows as csv.writer(lineterminator="\n") writes them: no
# field needs quoting (ints, True/False, "a:b;c:d" pair lists).
_THRESHOLD_CSV_HEADER = "p,q,upsilon,greedy_is_best,unique,ties,losses\n"


def _pairs_csv(pairs) -> str:
    return ";".join([f"{x}:{y}" for x, y in pairs])


# A row where greedy is the unique best, most rows, has no ties and no
# losses, so its line is its first three fields and a fixed tail.
def _rows_csv(batch) -> str:
    return "".join(
        [
            f"{p},{q},{u},True,True,,\n"
            if g and un
            else f"{p},{q},{u},{g},{un},{_pairs_csv(ti)},{_pairs_csv(lo)}\n"
            for p, q, u, g, un, ti, lo in batch
        ]
    )


# The encoders below write what json.dump(..., indent=2) writes for the
# threshold report, as fixed layouts: an object in the report's "rows" or
# "observations" list sits at indent 4, its keys at 6, the pairs of a
# pair list at 8 and the pair's two ints at 10.
_JSON_BOOL = {True: "true", False: "false"}


def _pairs_json(pairs) -> str:
    if not pairs:
        return "[]"
    items = ",".join([f"\n        [\n          {x},\n          {y}\n        ]" for x, y in pairs])
    return f"[{items}\n      ]"


def _row_json(p, q, ups, greedy_is_best, unique, ties, losses) -> str:
    """One threshold row as the object keyed by its 7 field names."""
    return (
        f'\n    {{\n      "p": {p},\n      "q": {q},\n      "upsilon": {ups},'
        f'\n      "greedy_is_best": {_JSON_BOOL[greedy_is_best]},'
        f'\n      "unique": {_JSON_BOOL[unique]},'
        f'\n      "ties": {_pairs_json(ties)},\n      "losses": {_pairs_json(losses)}\n    }}'
    )


def _rows_json(batch) -> str:
    """Threshold rows as items of the report's "rows" list; the unique-best
    rows, most rows, fill one f-string with their first three fields."""
    return ",".join(
        [
            f'\n    {{\n      "p": {p},\n      "q": {q},\n      "upsilon": {u},'
            '\n      "greedy_is_best": true,\n      "unique": true,'
            '\n      "ties": [],\n      "losses": []\n    }'
            if g and un
            else _row_json(p, q, u, g, un, ti, lo)
            for p, q, u, g, un, ti, lo in batch
        ]
    )


def _observation_json(obs) -> str:
    """One observation of ``verify_threshold_rows``, a loss or the tie, in its key order."""
    if obs["kind"] == "loss":
        return (
            f'\n    {{\n      "p": {obs["p"]},\n      "q": {obs["q"]},\n      "kind": "loss",'
            f'\n      "upsilon": {obs["upsilon"]},'
            f'\n      "losses": {_pairs_json(obs["losses"])}\n    }}'
        )
    return (
        f'\n    {{\n      "p": {obs["p"]},\n      "q": {obs["q"]},\n      "kind": "tie",'
        f'\n      "ties": {_pairs_json(obs["ties"])}\n    }}'
    )


def _emit_threshold_json(report, spool) -> None:
    """Write ``json.dump({**report, "rows": rows}, indent=2)`` plus a newline.

    ``spool`` holds the rows as ``_rows_json`` lays them out, in ASCII.
    Only the report's five leading keys, which are small, go through
    ``json.dumps``; its observations, one per loss row, go through the
    fixed layouts above.
    """
    write = sys.stdout.write
    payload = report.to_json_dict()
    observations = payload.pop("observations")
    passed = payload.pop("passed")
    head = json.dumps(payload, indent=2)[:-2]  # it ends with "\n}"
    if observations:
        listed = ",".join([_observation_json(obs) for obs in observations])
        head += f',\n  "observations": [{listed}\n  ]'
    else:
        head += ',\n  "observations": []'
    write(f'{head},\n  "passed": {_JSON_BOOL[passed]},\n  "rows": [')
    spool.seek(0)
    for chunk in iter(lambda: spool.read(1 << 20), b""):
        write(chunk.decode("ascii"))
    write("\n  ]\n}\n")


def cmd_verify(args) -> int:
    suite = args.suite
    jobs = worker_count(args.jobs)  # rejected for every suite, not only sweeps
    reports = []
    if suite == "lp1":
        reports.append(lemmas.verify_lp1(args.q_max, jobs=jobs))
    elif suite == "lp11":
        reports.append(lemmas.verify_lp11(args.q_max, jobs=jobs))
    elif suite == "lp12":
        reports.append(lemmas.verify_lp12())
    elif suite == "lp50":
        reports.append(lemmas.verify_lp50(args.q_max, jobs=jobs))
    elif suite == "threshold":
        rows = underapprox.threshold_sweep(args.q_max, jobs=jobs)
        # The rows are encoded as they pass into the check; json's wait in a
        # spool, since the report's keys are written before its rows. Both
        # are closed on any exit: an exception raised while a row is checked
        # or written (Ctrl-C, say) would otherwise keep the pool running
        # until the interpreter exits.
        with closing(rows), ExitStack() as stack:
            if args.format == "csv":
                sys.stdout.write(_THRESHOLD_CSV_HEADER)
                rows = _written(rows, _rows_csv, sys.stdout.write)
            elif args.format == "json":
                import tempfile  # about 6 ms of imports, paid by json threshold runs only
                spool = stack.enter_context(tempfile.TemporaryFile())
                rows = _written(rows, _rows_json, lambda s: spool.write(s.encode("ascii")), ",")
            report = underapprox.verify_threshold_rows(rows, args.q_max)
            if args.format == "json":
                _emit_threshold_json(report, spool)
            if args.format != "plain":
                return EXIT_OK if report.passed else EXIT_VERIFY_FAILED
            reports.append(report)
    elif suite == "claims":
        for claim in ("cls1", "cls2", "cll5"):
            reports.append(counterexamples.check_fractional_claims(claim, args.j_max))
    elif suite == "roots":
        for case in (1, 2, 3):
            reports.append(counterexamples.check_root_interval(case, args.s_max))
    elif suite == "tables":
        reports.append(counterexamples.verify_tables())
    else:  # argparse choices make this unreachable
        raise DomainError(f"unknown suite {suite!r}")

    all_passed = all(r.passed for r in reports)
    if args.format == "plain":
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"{status} {r.lemma_id}: {r.points_checked} points, "
                f"{len(r.failures)} failure(s), range {r.range_descr}"
            )
            for failure in r.failures:
                print(f"  failure at {failure}")
    else:
        payload = [r.to_json_dict() for r in reports]
        _emit_json(payload[0] if len(payload) == 1 else payload)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egfrac",
        description="Exact greedy Egyptian-fraction expansions, optimal "
        "underapproximation searches, and verification sweeps.",
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv", "plain"),
        default="json",
        help="output format (default json; csv only where documented)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="greedy expansion of p/q")
    p_expand.add_argument("p", type=int)
    p_expand.add_argument("q", type=int)
    p_expand.add_argument("--m", type=int, required=True, help="number of terms")
    p_expand.add_argument(
        "--digit-guard",
        type=int,
        default=DEFAULT_DIGIT_GUARD,
        help=f"abort when a denominator exceeds this many digits (default {DEFAULT_DIGIT_GUARD})",
    )
    p_expand.add_argument("--no-guard", action="store_true", help="disable the digit guard")
    p_expand.set_defaults(func=cmd_expand)

    p_best = sub.add_parser("best", help="best m-term underapproximation of p/q")
    p_best.add_argument("p", type=int)
    p_best.add_argument("q", type=int)
    p_best.add_argument("--m", type=int, required=True)
    p_best.add_argument(
        "--budget", type=int, default=None, help="search node budget (at least 1)"
    )
    p_best.set_defaults(func=cmd_best)

    p_step = sub.add_parser("step", help="step conditions for numerator n at step m")
    p_step.add_argument("p", type=int)
    p_step.add_argument("q", type=int)
    p_step.add_argument("--m", type=int, required=True)
    p_step.add_argument("--n", type=int, required=True)
    p_step.set_defaults(func=cmd_step)

    p_upsilon = sub.add_parser("upsilon", help="divisibility profile of p/q")
    p_upsilon.add_argument("p", type=int)
    p_upsilon.add_argument("q", type=int)
    p_upsilon.set_defaults(func=cmd_upsilon)

    p_construct = sub.add_parser("construct", help="two-term counterexample for index k")
    p_construct.add_argument("k", type=int)
    p_construct.set_defaults(func=cmd_construct)

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument(
        "suite",
        choices=("lp1", "lp11", "lp12", "lp50", "threshold", "claims", "roots", "tables"),
    )
    p_verify.add_argument("--q-max", type=int, default=500)
    p_verify.add_argument("--j-max", type=int, default=500)
    p_verify.add_argument("--s-max", type=int, default=100)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.set_defaults(func=cmd_verify)

    p_phi = sub.add_parser("phi-samples", help="exact phi samples on a rational grid")
    p_phi.add_argument("--denom", type=int, required=True, help="common denominator of the grid")
    p_phi.add_argument(
        "--min-num",
        type=int,
        default=None,
        help="first numerator (default: ceil(denom/10), i.e. theta from ~1/10)",
    )
    p_phi.set_defaults(func=cmd_phi_samples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Denominators within the digit guard run to 10,000 digits, beyond
    # CPython's default 4,300-digit limit on int -> str (3.10.7 and later).
    set_int_max_str_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_int_max_str_digits is not None:
        set_int_max_str_digits(0)
    target = f"verify {args.suite}" if args.command == "verify" else args.command
    try:
        # csv is defined only for the two tables, and phi-samples has no plain form
        if (args.format == "csv" and target not in ("verify threshold", "phi-samples")) or (
            args.format == "plain" and target == "phi-samples"
        ):
            raise DomainError(f"{args.format} output is not defined for {target!r}")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must surface here, not at exit
        return code
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DigitGuardExceeded as exc:
        print(f"digit guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except SearchInconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except BrokenPipeError:
        # The reader went away (e.g. `| head`). Point stdout at devnull so
        # the interpreter's final flush of the unwritten buffer cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
