"""Command-line front end.

Every operation is a subcommand with machine-readable output on stdout
(diagnostics go to stderr). Fractions are passed as two integer
arguments, checked and reduced by ``greedy.reduced`` (one rule, one
message), and the reduced pair is echoed in the output. Output is
deterministic given the flags; ``--jobs`` only affects wall time.
``--jobs N`` runs a sweep in N processes, this one included: it computes
chunks of the sweep too while it waits for the N - 1 workers (see
``_pool.ordered_map``).

Exit codes (stable API): 0 ok, 2 domain error, 3 digit guard exceeded,
4 search inconclusive, 5 verification failure, 6 invariant violation (a
proved identity failed: a bug, reported in one stderr line), 141 stdout
closed by its reader before the output was written (nothing on stderr).
A format a command does not declare, and a flag that a ``verify`` suite
does not read (see ``SUITES``), are domain errors raised before any work.

The tables, ``verify threshold`` and ``phi-samples`` in csv or json, are
written through one generator, ``_written``, in batches of fixed layouts
byte for byte equal to what ``csv.writer`` and ``json.dump(indent=2)``
write, and so are the json threshold report's observations. A batch is
written once its rows have passed into the check, so no threshold row
that fails the check's interval assertion is printed. The json report
spools its rows, since its keys and observations come first.

Arguments are read, and every command runs, without CPython's limit on
the digits of an int <-> str conversion (see ``main``), so any number
the CLI prints can be passed back to it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections import namedtuple
from contextlib import closing
from fractions import Fraction
from itertools import islice

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


def _emit(fmt, payload, plain_lines) -> int:
    """Write ``payload`` as json, or in plain format the lines ``plain_lines()`` returns."""
    if fmt == "plain":
        for line in plain_lines():
            print(line)
    else:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_expand(args) -> int:
    p, q = greedy.reduced(args.p, args.q)
    guard = None if args.no_guard else args.digit_guard
    exp = greedy.expand(Fraction(p, q), args.m, digit_guard=guard)
    profile = greedy.upsilon_profile(p, q, digit_guard=guard)
    payload = exp.to_json_dict()
    payload.update({"p": p, "q": q, "ell": profile.ell, "delta": profile.delta})
    return _emit(args.format, payload, lambda: [
        f"theta = {p}/{q}  (ell = {profile.ell}, delta = {profile.delta})",
        "terms: " + " ".join(str(t) for t in exp.terms),
        f"error = {exp.error}",
        f"recurrence_start = {exp.recurrence_start}",
    ])


def cmd_best(args) -> int:
    p, q = greedy.reduced(args.p, args.q)
    result = underapprox.best_m_term(
        Fraction(p, q), args.m, budget=args.budget, digit_guard=DEFAULT_DIGIT_GUARD
    )
    return _emit(args.format, result.to_json_dict(), lambda: [
        f"theta = {p}/{q}, m = {result.m}",
        f"greedy = {tuple(result.greedy_terms)} sum {result.greedy_sum}",
        f"optimal sum {result.optimal_sum}: " + ", ".join(str(t) for t in result.optimal_tuples),
        f"greedy_is_best = {result.greedy_is_best}, unique = {result.unique}",
    ])


def cmd_step(args) -> int:
    p, q = greedy.reduced(args.p, args.q)
    report = greedy.step_report(
        Fraction(p, q), args.m, args.n, digit_guard=DEFAULT_DIGIT_GUARD
    )
    return _emit(args.format, report.to_json_dict(), lambda: [
        f"theta = {p}/{q}, m = {report.m}, n = {report.n}",
        f"a_m = {report.a_m}, b_m = {report.b_m}, phi = {report.phi_value}",
        f"conditions hold: {report.holds}",
    ])


def cmd_upsilon(args) -> int:
    profile = greedy.upsilon_profile(args.p, args.q, digit_guard=DEFAULT_DIGIT_GUARD)
    return _emit(args.format, profile.to_json_dict(), lambda: [
        f"p/q = {profile.p}/{profile.q}",
        f"upsilon = {profile.upsilon}, ell = {profile.ell}, "
        f"delta = {profile.delta}, family = {profile.family}",
    ])


def cmd_construct(args) -> int:
    ce = counterexamples.construct(args.k)
    return _emit(args.format, ce.to_json_dict(), lambda: [
        f"k = {ce.k}: p/q = {ce.p}/{ce.q} (v = {ce.v}, s = {ce.s})",
        f"greedy pair {ce.greedy_pair} beaten by {ce.beating_pair}",
        f"margin = {ce.margin}",
    ])


def _written(rows, encode, write, sep=""):
    """Yield each row unchanged, writing ``encode(batch)`` per batch of rows.

    A batch is ``_ROWS_PER_WRITE`` rows, or the rows left at the end, and
    ``sep`` goes between batches. A batch's rows are all yielded before
    the batch is written, so a consumer that raises on a row stops the
    write of the batch that holds it. ``encode`` gets the whole batch, so
    the per-row work stays inside its list comprehension.
    """
    rows = iter(rows)
    lead = ""
    while batch := list(islice(rows, _ROWS_PER_WRITE)):
        yield from batch
        write(lead + encode(batch))
        lead = sep


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


def _observations_json(batch) -> str:
    """Observations as items of the report's "observations" list."""
    return ",".join([_observation_json(obs) for obs in batch])


def _emit_threshold_json(report, spool) -> None:
    """Write ``json.dump({**report, "rows": rows}, indent=2)`` plus a newline.

    ``spool`` holds the rows as ``_rows_json`` lays them out, in ASCII.
    Only the report's five leading keys, which are small, go through
    ``json.dumps``; its observations, one per loss row, are written
    through ``_written`` in batches, as the rows were.
    """
    write = sys.stdout.write
    payload = report.to_json_dict()
    observations = payload.pop("observations")
    passed = payload.pop("passed")
    write(json.dumps(payload, indent=2)[:-2] + ',\n  "observations": [')  # it ends with "\n}"
    if observations:
        for _ in _written(observations, _observations_json, write, ","):
            pass
        write("\n  ")
    write(f'],\n  "passed": {_JSON_BOOL[passed]},\n  "rows": [')
    spool.seek(0)
    for chunk in iter(lambda: spool.read(1 << 20), ""):
        write(chunk)
    write("\n  ]\n}\n")


def _threshold_report(q_max, jobs, *encoding):
    """The threshold report; given ``encoding``, ``_written``'s ``encode,
    write[, sep]``, each row is written as it passes into the check.

    The sweep is closed on any exit: an exception raised while a row is
    checked or written (Ctrl-C, say) would otherwise keep the pool running
    until the interpreter exits.
    """
    with closing(underapprox.threshold_sweep(q_max, jobs=jobs)) as rows:
        if encoding:
            rows = _written(rows, *encoding)
        return underapprox.verify_threshold_rows(rows, q_max)


def _stream_threshold(fmt, q_max, jobs) -> int:
    """``verify threshold`` as a csv or json table. json's rows wait in a
    spool, since the report's keys are written before them."""
    if fmt == "csv":
        sys.stdout.write(_THRESHOLD_CSV_HEADER)
        report = _threshold_report(q_max, jobs, _rows_csv, sys.stdout.write)
    else:
        import tempfile  # about 6 ms of imports, paid by json threshold runs only

        with tempfile.TemporaryFile("w+", encoding="ascii", newline="") as spool:
            report = _threshold_report(q_max, jobs, _rows_json, spool.write, ",")
            _emit_threshold_json(report, spool)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


# A verify suite: the bound flag it reads (None: it reads none) and that
# bound's default, the formats it writes, and its runner, run(bound, jobs)
# -> reports. The --q-max suites are the pooled sweeps, the only ones that
# read --jobs. A runner looks its check up when it runs, so that a test can
# replace the check.
Suite = namedtuple("Suite", "flag default formats run")

_FORMATS = ("json", "csv", "plain")
_JSON_PLAIN = ("json", "plain")

SUITES = {
    "lp1": Suite("--q-max", 500, _JSON_PLAIN, lambda q, jobs: [lemmas.verify_lp1(q, jobs=jobs)]),
    "lp11": Suite("--q-max", 500, _JSON_PLAIN, lambda q, jobs: [lemmas.verify_lp11(q, jobs=jobs)]),
    "lp12": Suite(None, None, _JSON_PLAIN, lambda _, __: [lemmas.verify_lp12()]),
    "lp50": Suite("--q-max", 500, _JSON_PLAIN, lambda q, jobs: [lemmas.verify_lp50(q, jobs=jobs)]),
    "threshold": Suite("--q-max", 500, _FORMATS, lambda q, jobs: [_threshold_report(q, jobs)]),
    "claims": Suite("--j-max", 500, _JSON_PLAIN, lambda j, _: [
        counterexamples.check_fractional_claims(claim, j) for claim in ("cls1", "cls2", "cll5")]),
    "roots": Suite("--s-max", 100, _JSON_PLAIN, lambda s, _: [
        counterexamples.check_root_interval(case, s) for case in (1, 2, 3)]),
    "tables": Suite(None, None, _JSON_PLAIN, lambda _, __: [counterexamples.verify_tables()]),
}

# the flags of `verify`: each suite's bound flag, and --jobs
_SUITE_FLAGS = (*dict.fromkeys(s.flag for s in SUITES.values() if s.flag), "--jobs")
_DEFAULT_JOBS = 1


def _reads(suite) -> tuple:
    """The flags of `verify` that ``suite`` reads."""
    return (suite.flag, "--jobs") if suite.flag == "--q-max" else (suite.flag,)


def _flag_help(flag) -> str:
    """``--help`` for a flag of `verify`: the suites that read it, by default value."""
    by_default = {}
    for name, suite in SUITES.items():
        if flag in _reads(suite):
            default = _DEFAULT_JOBS if flag == "--jobs" else suite.default
            by_default.setdefault(default, []).append(name)
    return "; ".join(f"read by {', '.join(names)} (default {d})" for d, names in by_default.items())


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    values = {flag: getattr(args, flag[2:].replace("-", "_")) for flag in _SUITE_FLAGS}
    for flag, value in values.items():
        if value is not None and flag not in _reads(suite):
            raise DomainError(f"verify {args.suite} does not read {flag}")
    jobs = worker_count(_DEFAULT_JOBS if values["--jobs"] is None else values["--jobs"])
    bound = suite.default if values.get(suite.flag) is None else values[suite.flag]
    if args.suite == "threshold" and args.format != "plain":
        return _stream_threshold(args.format, bound, jobs)
    reports = suite.run(bound, jobs)

    def plain_lines():
        for r in reports:
            yield (f"{'PASS' if r.passed else 'FAIL'} {r.lemma_id}: {r.points_checked} points, "
                   f"{len(r.failures)} failure(s), range {r.range_descr}")
            yield from (f"  failure at {failure}" for failure in r.failures)

    payload = [r.to_json_dict() for r in reports]
    _emit(args.format, payload[0] if len(payload) == 1 else payload, plain_lines)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egfrac",
        description="Exact greedy Egyptian-fraction expansions, optimal "
        "underapproximation searches, and verification sweeps.",
    )
    parser.add_argument(
        "--format",
        choices=_FORMATS,
        default="json",
        help="output format (default json; csv only where documented)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fraction = argparse.ArgumentParser(add_help=False)  # the p q of four commands
    fraction.add_argument("p", type=int)
    fraction.add_argument("q", type=int)

    p_expand = sub.add_parser("expand", parents=[fraction], help="greedy expansion of p/q")
    p_expand.add_argument("--m", type=int, required=True, help="number of terms")
    p_expand.add_argument(
        "--digit-guard",
        type=int,
        default=DEFAULT_DIGIT_GUARD,
        help=f"abort when a denominator exceeds this many digits (default {DEFAULT_DIGIT_GUARD})",
    )
    p_expand.add_argument("--no-guard", action="store_true", help="disable the digit guard")
    p_expand.set_defaults(func=cmd_expand, formats=_JSON_PLAIN)

    p_best = sub.add_parser(
        "best", parents=[fraction], help="best m-term underapproximation of p/q"
    )
    p_best.add_argument("--m", type=int, required=True)
    p_best.add_argument(
        "--budget", type=int, default=None, help="search node budget (at least 1)"
    )
    p_best.set_defaults(func=cmd_best, formats=_JSON_PLAIN)

    p_step = sub.add_parser(
        "step", parents=[fraction], help="step conditions for numerator n at step m"
    )
    p_step.add_argument("--m", type=int, required=True)
    p_step.add_argument("--n", type=int, required=True)
    p_step.set_defaults(func=cmd_step, formats=_JSON_PLAIN)

    p_upsilon = sub.add_parser("upsilon", parents=[fraction], help="divisibility profile of p/q")
    p_upsilon.set_defaults(func=cmd_upsilon, formats=_JSON_PLAIN)

    p_construct = sub.add_parser("construct", help="two-term counterexample for index k")
    p_construct.add_argument("k", type=int)
    p_construct.set_defaults(func=cmd_construct, formats=_JSON_PLAIN)

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument("suite", choices=SUITES)
    for flag in _SUITE_FLAGS:  # None: not given, so that cmd_verify can reject it
        p_verify.add_argument(flag, type=int, help=_flag_help(flag))
    p_verify.set_defaults(func=cmd_verify)

    p_phi = sub.add_parser("phi-samples", help="exact phi samples on a rational grid")
    p_phi.add_argument("--denom", type=int, required=True, help="common denominator of the grid")
    p_phi.add_argument(
        "--min-num",
        type=int,
        default=None,
        help="first numerator (default: ceil(denom/10), i.e. theta from ~1/10)",
    )
    p_phi.set_defaults(func=cmd_phi_samples, formats=("json", "csv"))

    return parser


def main(argv=None) -> int:
    """Run the command ``argv`` names; return its exit code (listed above).

    With ``argv`` None, as the ``egfrac`` script and ``python -m
    egfrac.cli`` call it, ``main`` is the program: it reads ``sys.argv``
    and, before the command runs, moves every object made so far into the
    collector's permanent generation with ``gc.freeze()``. Every command
    runs without CPython's limit on the digits of an int <-> str
    conversion, so that denominators up to the 10,000-digit guard print,
    and its arguments are read under the same lift, so that any number it
    prints can be passed back in; the program leaves the limit lifted. A
    caller that passes ``argv`` keeps its collector as it was and gets its
    digit limit back when ``main`` returns or argparse exits.
    """
    parser = build_parser()
    # Denominators within the digit guard run to 10,000 digits, beyond
    # CPython's default 4,300-digit limit on int <-> str (3.10.7 and later),
    # so the arguments are read and the command runs without it: what the
    # CLI prints, it reads back. A program's argument is at most 128 KiB on
    # Linux, so no argument costs it an unbounded quadratic parse. The limit
    # guards a long-lived caller against quadratic conversions, so one that
    # passes argv gets it back, even when argparse exits.
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        if argv is None:
            # The start-up heap (modules, classes, the parser) lives until
            # exit, so no collection needs to walk it: not the ones at exit,
            # during the run or in forked --jobs workers, whose copy-on-write
            # pages it also spares. A long-lived caller that passes argv is
            # not frozen, since frozen cyclic garbage would never be freed.
            gc.freeze()
        target = f"verify {args.suite}" if args.command == "verify" else args.command
        formats = SUITES[args.suite].formats if args.command == "verify" else args.formats
        if args.format not in formats:
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
    finally:
        if argv is not None and digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
