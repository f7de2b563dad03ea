"""CLI contract: subcommands, output schemas, exit codes, determinism."""

import csv
import gc
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import closing, suppress
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from egfrac import _pool, cli, greedy, lemmas, underapprox

SRC = Path(__file__).resolve().parents[1] / "src"
REFERENCE = SRC.parent / "perfbench" / "reference.json"

SYLVESTER_8 = ["2", "3", "7", "43", "1807", "3263443", "10650056950807",
               "113423713055421844361000443"]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_basic(capsys):
    code, out, _ = run_cli(capsys, "expand", "1", "7", "--m", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == ["8", "57", "3193", "10192057", "103878015699193"]
    assert payload["error"]["num"] == "1"
    assert payload["p"] == 1 and payload["q"] == 7


def test_expand_sylvester(capsys):
    code, out, _ = run_cli(capsys, "expand", "1", "1", "--m", "8")
    assert code == 0
    assert json.loads(out)["terms"] == SYLVESTER_8


def test_expand_reduces_and_reports_indices(capsys):
    code, out, _ = run_cli(capsys, "expand", "14", "108", "--m", "3")
    assert code == 0
    payload = json.loads(out)
    assert (payload["p"], payload["q"]) == (7, 54)
    assert payload["ell"] == 2 and payload["delta"] == 1
    assert payload["terms"] == ["8", "217", "46873"]


def test_expand_digit_guard_exit_code(capsys):
    code, _, err = run_cli(capsys, "expand", "9", "28", "--m", "9", "--digit-guard", "50")
    assert code == 3
    assert "digit guard" in err
    code, out, _ = run_cli(capsys, "expand", "9", "28", "--m", "9", "--no-guard")
    assert code == 0
    assert len(json.loads(out)["terms"]) == 9


@pytest.mark.parametrize("guard", ["0", "-5"])
def test_digit_guard_below_one_is_a_domain_error(capsys, guard):
    code, out, err = run_cli(capsys, "expand", "5", "16", "--m", "3", "--digit-guard", guard)
    assert code == 2 and out == ""
    assert "digit guard" in err
    # a_1 = 4 has one digit and a_2 = 17 two, so a one-digit guard stops at step 2
    code, out, err = run_cli(capsys, "expand", "5", "16", "--m", "3", "--digit-guard", "1")
    assert code == 3 and out == ""
    assert "step 2" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "expand", "3", "2", "--m", "1")
    assert code == 2
    assert "domain error" in err


FRACTION_ARGVS = {
    "expand": ("--m", "2"),
    "best": ("--m", "2"),
    "step": ("--m", "1", "--n", "1"),
    "upsilon": (),
}


@pytest.mark.parametrize("p, q", [(1, 0), (0, 5), (-1, 5), (1, -5), (-2, -3), (3, 2)])
def test_a_bad_fraction_gets_one_message_from_every_command(capsys, p, q):
    errs = set()
    for command, flags in FRACTION_ARGVS.items():
        code, out, err = run_cli(capsys, command, str(p), str(q), *flags)
        assert (code, out) == (cli.EXIT_DOMAIN, ""), command
        assert err.startswith("domain error: ") and err.count("\n") == 1, command
        errs.add(err)
    assert len(errs) == 1, errs


def test_best_reports_tie(capsys):
    code, out, _ = run_cli(capsys, "best", "10", "17", "--m", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["optimal_tuples"] == [["2", "12"], ["3", "4"]]
    assert payload["greedy_is_best"] is True
    assert payload["unique"] is False


def test_best_budget_exit_code(capsys):
    code, _, err = run_cli(capsys, "best", "5", "16", "--m", "3", "--budget", "2")
    assert code == 4
    assert "inconclusive" in err


def test_best_budget_is_one_node_per_x_tried(capsys):
    result = underapprox.best_m_term(Fraction(10, 17), 5)
    nodes = sum(result.nodes_per_level)
    code, out, _ = run_cli(capsys, "best", "10", "17", "--m", "5", "--budget", str(nodes))
    assert code == 0
    assert json.loads(out) == result.to_json_dict()
    code, out, err = run_cli(capsys, "best", "10", "17", "--m", "5", "--budget", str(nodes - 1))
    assert code == 4 and out == ""
    assert f"search budget exhausted after {nodes} nodes (budget {nodes - 1})" in err


# Searches of the benchmark's mterm-search workload that perfbench/reference.json
# records as exit 4 (inconclusive), so the benchmark never compares their bytes.
# Each optimal tuple set was confirmed against oracles.branch_and_bound_m_term.
_BEST_SHA256 = {
    "best 1 20 --m 4 --budget 500000":
        "cd32baff324b61b77c055fccf52adfff693b9c4aceb745618dba32b4bfa2bac0",
    "best 1 27 --m 4 --budget 500000":
        "5466bfbc94f0b60f52b908d2e9cd12967e75f1feb979113a559630e60ead9a70",
    "best 4 31 --m 4 --budget 500000":
        "f5aff9bf06bbdaa4505ebbb1c6e6b5b4d87745456e86a27a6f55fbc6395fd11a",
    "best 6 35 --m 4 --budget 500000":
        "11f09d25b940374eaa2a2dc4c59b27ccc97961533f19e405ce1644f2f6d5352e",
    "best 10 17 --m 5 --budget 500000":
        "d0bafd8b502f7afffa66aeffc69eec5f753d482c6a37aea19025f908247a9dd0",
}


@pytest.mark.parametrize("argv", sorted(_BEST_SHA256))
def test_best_searches_decided_since_the_reference_are_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _BEST_SHA256[argv]


# Exit code and sha256 of stdout and stderr of outputs that no argv of the
# benchmark reference covers, recorded before the finite suites were built on
# report.tally and the counterexample checks moved to integers.
_PINNED_SHA256 = {
    "--format json verify lp12": (
        0,
        "3ac89f98b9c081c2e232c8d5f3a54edc3d13e437fb5e6638aae7571880cdb445",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "--format json verify tables": (
        0,
        "b890519afa7a38ed7a8703d9e32b205b9723ca1d44a357fd357156dae7aff975",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "--format json verify roots --s-max 57": (
        0,
        "943e40205aa1092afc3a0dc64ad7bb234564ca99de2b290d051c970837098695",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "--format json verify claims --j-max 500": (
        0,
        "37bafbbe3e0ffb4a3eafa8d60b5211a4e1f5e943ae2ec31f64abdbbfd2b127f8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "--format json construct 4": (
        0,
        "50c0df1fd9224e512631c66a56640152b4392e9f2b45043a8c6eac2123afaacb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "--format json construct 47": (
        0,
        "0b026899a751704b772343b05ddc2f878bad786928c1c0146ff64823e3e3b47e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "--format json construct 10000000000000001": (
        0,
        "5294729506cf13672f5ce64d1d01c3e72f9722e5db78e90fe48a0b2b2567e5df",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "--format plain verify lp12": (
        0,
        "666dbb8d47b72da45236fcc275b4d5bedfd2c2d617410d384a8b2f6cae8123d3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "--format plain verify tables": (
        0,
        "df40142d3c5c3af56b790bb6b2310c124b877e40f79be06791f9ffd2cb9c1820",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "--format plain verify roots --s-max 57": (
        0,
        "f05fed11ba3af8cfe72455c5559cabf75a311909db05b97185065f24ffbed8b5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "--format plain verify claims --j-max 500": (
        0,
        "61d64c9a3bfab433ef7ff79514c3d6b125a4e9ffa26d914633c5f83236f62c38",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "--format plain construct 4": (
        0,
        "54b41193030f9bc5c0fb3fcca4c6c2e5d8cfc1718048b3b3182325b46a6df626",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "--format plain construct 47": (
        0,
        "d3f5f82d8a07a5146d1d36cc036aa1712774a72141b4d705a71b8fc576957737",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "--format plain construct 10000000000000001": (
        0,
        "cf3cfe82f29dd27d45e3fb91e26bef1ddaeb2d31d0f1ec6c23eede0a5a67685a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify claims --j-max 11": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "cfd46cde7aec78879af524276519d616eac42072b6534c645bcd7af72699a9bb",
    ),
    "--format plain expand 9 28 --m 9": (
        0,
        "b7097f824501440274e3a2df75d33a8095f494b8b386246bdbe038b1343ecb3b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "--format plain best 10 17 --m 2": (
        0,
        "497b492c56d21ed99fa36df19c0095d24666fd0f37a0d70f2b89d689005f210f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "--format plain step 1 7 --m 1 --n 2": (
        0,
        "7f779029b715bfd1efc26e9b0bfdc17f89bd613bf5bd529f1a87c19431cb3b60",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "--format plain upsilon 7 54": (
        0,
        "52a971f82dc0b7ad964748ec0201ea057c0656b05b2585331380561e4d6c921c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


@pytest.mark.parametrize("argv", sorted(_PINNED_SHA256))
def test_outputs_outside_the_benchmark_reference_are_pinned(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (out, err))
    assert (code, *digests) == _PINNED_SHA256[argv]


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_best_budget_below_one_is_a_domain_error(capsys, budget):
    code, out, err = run_cli(capsys, "best", "10", "17", "--m", "2", "--budget", budget)
    assert code == 2 and out == ""
    assert "budget" in err


def test_best_expansion_is_digit_guarded(capsys):
    # greedy denominators of 5/16 double in digits at every step; the
    # guard stops the expansion before the budget is ever consulted
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "best", "5", "16", "--m", "30", "--budget", "10")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "digit guard" in err


def test_step_command(capsys):
    code, out, _ = run_cli(capsys, "step", "1", "7", "--m", "1", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["cond_i"] is False
    assert payload["b_m"] == "15"


@pytest.fixture
def default_int_str_limit():
    """CPython's default 4,300-digit int -> str limit, restored afterwards."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:  # before 3.10.7 there is no limit
        yield
        return
    saved = get()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _decimal(n: int) -> str:
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is None:
        return str(n)
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(saved)


def test_denominators_past_the_int_str_limit_are_printed(capsys, default_int_str_limit):
    # 5/16's a_15 has 9,976 digits: inside the 10,000-digit guard, past 4,300
    terms = greedy.expand(Fraction(5, 16), 15).terms
    a15 = _decimal(terms[14])
    assert len(a15) == 9976
    code, out, err = run_cli(capsys, "expand", "5", "16", "--m", "15")
    assert (code, err) == (0, "")
    assert json.loads(out)["terms"][14] == a15
    code, out, err = run_cli(capsys, "--format", "plain", "expand", "5", "16", "--m", "15")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].split()[-1] == a15
    code, out, err = run_cli(capsys, "step", "5", "16", "--m", "14", "--n", "2")
    assert (code, err) == (0, "")
    assert json.loads(out)["a_m"] == _decimal(terms[13])


def test_numbers_past_the_int_str_limit_are_read(capsys, default_int_str_limit):
    # what the CLI prints it reads back: 5/16's a_15 (9,976 digits) as q
    a15 = _decimal(greedy.expand(Fraction(5, 16), 15).terms[14])
    code, out, err = run_cli(capsys, "upsilon", "1", a15)
    assert (code, err) == (0, "")
    assert f'\n  "q": {a15},\n' in out  # json.loads would hit the limit
    # a 12,000-digit q is read, and its first greedy term trips the digit guard
    code, out, err = run_cli(capsys, "upsilon", "2", "1" + "0" * 11998 + "1")
    assert (code, out) == (cli.EXIT_GUARD, "") and "digit guard" in err


def test_an_in_process_call_gives_the_int_str_limit_back(capsys, default_int_str_limit):
    # the limit guards a long-lived caller against quadratic int <-> str
    # conversions, so main(argv) lifts it for its arguments and command
    # alone, whatever the exit code
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    for argv, exit_code in (
        (["upsilon", "7", "54"], 0),
        (["expand", "5", "16", "--m", "15"], 0),
        (["upsilon", "1", "1" + "0" * 4999], 0),
        (["best", "3", "2", "--m", "2"], cli.EXIT_DOMAIN),
        (["--format", "csv", "upsilon", "7", "54"], cli.EXIT_DOMAIN),
    ):
        code, _, _ = run_cli(capsys, *argv)
        assert code == exit_code, argv
        assert limit() == before, argv
    with pytest.raises(SystemExit):
        cli.main(["upsilon", "7"])
    capsys.readouterr()
    assert limit() == before


def test_step_is_digit_guarded(capsys):
    # step m needs a_{m+1}: a_15 fits the default guard, a_16 does not
    code, _, _ = run_cli(capsys, "step", "5", "16", "--m", "14", "--n", "2")
    assert code == 0
    code, out, err = run_cli(capsys, "step", "5", "16", "--m", "15", "--n", "2")
    assert (code, out) == (3, "") and "digit guard" in err
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "step", "5", "16", "--m", "25", "--n", "2")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (3, "") and "digit guard" in err


# a General fraction whose delta walk passes the default guard at step 14;
# unguarded, the walk runs on with ever longer denominators
HUGE_DELTA = ("5699019327528187958238481272", "289310727873549501811999755421")


@pytest.mark.parametrize("argv", [("upsilon", *HUGE_DELTA), ("expand", *HUGE_DELTA, "--m", "2")])
def test_the_delta_walk_is_digit_guarded(argv):
    proc = subprocess.run([sys.executable, "-m", "egfrac.cli", *argv], env=_cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_GUARD, "")
    assert proc.stderr.startswith("digit guard:")


def test_upsilon_command(capsys):
    code, out, _ = run_cli(capsys, "upsilon", "7", "54")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"p": 7, "q": 54, "upsilon": 2, "ell": 2, "delta": 1,
                       "family": "UpsilonDividesQ"}


def test_construct_command(capsys):
    code, out, _ = run_cli(capsys, "construct", "6")
    assert code == 0
    payload = json.loads(out)
    assert (payload["p"], payload["q"], payload["v"]) == (7, 330, 8)
    assert payload["beating_pair"] == ["49", "1244"]


def test_verify_pass_and_exceptions(capsys):
    code, out, _ = run_cli(capsys, "verify", "lp11", "--q-max", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["failures"] == [[17, 2], [61, 8]]


def test_verify_threshold_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "threshold", "--q-max", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    by_pq = {(r["p"], r["q"]): r for r in payload["rows"]}
    assert by_pq[(10, 17)]["ties"] == [[3, 4]]
    assert by_pq[(5, 16)]["losses"] == [[5, 9]]

    code, out, _ = run_cli(capsys, "--format", "csv", "verify", "threshold", "--q-max", "20")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    tie = [r for r in rows if (r["p"], r["q"]) == ("10", "17")]
    assert tie and tie[0]["ties"] == "3:4"
    assert {r["q"] for r in rows} <= {str(q) for q in range(2, 21)}


def test_verify_tables_and_claims(capsys):
    code, out, _ = run_cli(capsys, "verify", "tables")
    assert code == 0
    assert json.loads(out)["points_checked"] == 16

    code, out, _ = run_cli(capsys, "verify", "claims", "--j-max", "60")
    assert code == 0
    payload = json.loads(out)
    assert [r["lemma_id"] for r in payload] == ["cls1", "cls2", "cll5"]
    assert all(r["passed"] for r in payload)


def test_verify_claims_rejects_an_empty_claim_range(capsys):
    # cls2's range starts at j = 12: at --j-max 11 it would check no point
    code, out, err = run_cli(capsys, "verify", "claims", "--j-max", "11")
    assert code == 2 and out == ""
    assert "j_max must be >= 12 for cls2" in err
    code, out, _ = run_cli(capsys, "verify", "claims", "--j-max", "12")
    assert code == 0
    payload = json.loads(out)
    assert [r["points_checked"] for r in payload] == [12, 1, 7]
    assert all(r["passed"] for r in payload)


def test_verify_roots(capsys):
    code, out, _ = run_cli(capsys, "verify", "roots", "--s-max", "25")
    assert code == 0
    assert all(r["passed"] for r in json.loads(out))


def test_phi_samples_csv(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "phi-samples", "--denom", "12")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["theta_num"] == "1" and rows[0]["theta_den"] == "6"
    by_theta = {(r["theta_num"], r["theta_den"]): r for r in rows}
    # phi(1/n) = 1 exactly; phi(2/3) = 2
    assert by_theta[("1", "4")]["phi_num"] == "1"
    assert by_theta[("1", "4")]["phi_den"] == "1"
    assert by_theta[("2", "3")]["phi_num"] == "2"
    # the grid k/12 for k = 2..12 collapses to reduced fractions, up to 1/1
    assert ("1", "1") in by_theta


@pytest.mark.parametrize("min_num", ["0", "-3", "13"])
def test_phi_samples_min_num_outside_the_grid_is_a_domain_error(capsys, min_num):
    code, out, err = run_cli(capsys, "phi-samples", "--denom", "12", "--min-num", min_num)
    assert code == 2 and out == ""
    assert "--min-num" in err


def _phi_samples_as_lists(fmt, denom):
    """phi-samples output with every row built before it is encoded."""
    rows = []
    for num in range((denom + 9) // 10, denom + 1):
        theta = Fraction(num, denom)
        value = greedy.phi(theta)
        rows.append((str(theta.numerator), str(theta.denominator),
                     str(value.numerator), str(value.denominator)))
    if fmt == "json":
        return json.dumps(
            [{"theta": {"num": a, "den": b}, "phi": {"num": c, "den": d}} for a, b, c, d in rows],
            indent=2,
        ) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["theta_num", "theta_den", "phi_num", "phi_den"])
    writer.writerows(rows)
    return out.getvalue()


# 2 and 3 give one and two rows; 2275 and 4550 exactly one and two full
# batches of 2,048 rows; 5000 gives 4,501 rows, three batches
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("denom", [2, 3, 12, 30, 97, 1000, 2275, 4550, 5000])
def test_phi_samples_streamed_equals_the_list_form(capsys, fmt, denom):
    code, out, _ = run_cli(capsys, "--format", fmt, "phi-samples", "--denom", str(denom))
    assert code == 0
    assert out == _phi_samples_as_lists(fmt, denom)


# the first row, the last row of the first full batch, the first of the next
@pytest.mark.parametrize("k", [1, cli._ROWS_PER_WRITE, cli._ROWS_PER_WRITE + 1])
def test_a_row_the_consumer_rejects_is_not_written(k):
    writes = []

    def consume():
        rows = range(1, 3 * cli._ROWS_PER_WRITE)
        for row in cli._written(rows, lambda rs: "".join([f"[{r}]" for r in rs]), writes.append):
            if row == k:
                raise ValueError(row)

    with pytest.raises(ValueError):
        consume()
    assert f"[{k}]" not in "".join(writes)
    assert len(writes) == (k - 1) // cli._ROWS_PER_WRITE  # the full batches before k's


def _under_data_limit(argv):
    """A ``python -c`` script that runs ``main(argv)`` limited to 48 MB of data."""
    limit = 48 << 20
    return (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_DATA, ({limit}, {limit}))\n"
        "from egfrac.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )


def _tail_under_data_limit(tmp_path, argv):
    """The last 40 bytes ``main(argv)`` writes in a child limited to 48 MB of data."""
    script = _under_data_limit(argv)
    out_path = tmp_path / "out"
    with open(out_path, "wb") as out:
        proc = subprocess.run([sys.executable, "-c", script], env=_cli_env(), stdout=out,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(out_path, "rb") as out:
        out.seek(-40, os.SEEK_END)
        return out.read()


# With every row held in a list before it is encoded, both runs end in
# MemoryError under this data limit; streamed, both peak near 20 MB of RSS.
@pytest.mark.parametrize("fmt, denom", [("json", 60_000), ("csv", 150_000)])
def test_phi_samples_runs_in_bounded_memory(tmp_path, fmt, denom):
    tail = _tail_under_data_limit(tmp_path, ["--format", fmt, "phi-samples", "--denom", str(denom)])
    assert tail.endswith(b'"1"\n    }\n  }\n]\n' if fmt == "json" else b"\n1,1,1,1\n")


# With its rows held in a list until the report's keys are written, the
# 1000 run ends in MemoryError; spooled, it stays near 30 MB of RSS. With
# its observations joined into one string before they are written, the
# 2000 run ends in MemoryError; written in batches, it peaks near 37 MB.
def test_threshold_json_runs_in_bounded_memory(tmp_path):
    for q_max in (1000, 2000):
        tail = _tail_under_data_limit(tmp_path, ["verify", "threshold", "--q-max", str(q_max)])
        assert tail.endswith(b'"losses": []\n    }\n  ]\n}\n'), q_max


# A lemma sweep walks the q of each u one at a time: with a list of the q
# of a u (5 * 10**11 of them at u = 2), this run ends in MemoryError at once.
def test_a_hostile_q_max_lemma_sweep_runs_in_flat_memory(tmp_path):
    argv = ["--format", "plain", "verify", "lp1", "--q-max", str(10**12)]
    with open(tmp_path / "err", "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-c", _under_data_limit(argv)], env=_cli_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            time.sleep(3)
            code = proc.poll()
        finally:
            proc.kill()
            proc.wait(timeout=30)
        err.seek(0)
        assert (code, err.read()[-2000:]) == (None, b"")


def test_plain_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "plain", "best", "5", "16", "--m", "2")
    assert code == 0
    assert "greedy_is_best = False" in out


def test_verify_failure_exit_code(capsys, monkeypatch):
    from egfrac.report import VerificationReport

    def broken(q_max, jobs=1):
        return VerificationReport("lp1", "stub", 1, failures=[(4, 2, 1, 1)],
                                  expected_exceptions=[])

    monkeypatch.setattr(cli.lemmas, "verify_lp1", broken)
    code, out, _ = run_cli(capsys, "verify", "lp1")
    assert code == 5
    assert json.loads(out)["passed"] is False


# one argv of each command but verify, which is run once per suite
_COMMAND_ARGVS = {
    "expand": ["expand", "5", "16", "--m", "3"],
    "best": ["best", "10", "17", "--m", "2"],
    "step": ["step", "1", "7", "--m", "1", "--n", "2"],
    "upsilon": ["upsilon", "7", "54"],
    "construct": ["construct", "6"],
    "phi-samples": ["phi-samples", "--denom", "30"],
}


def _no_work(*args, **kwargs):
    raise AssertionError("the command ran before its arguments were rejected")


def test_csv_rejected_where_undefined(capsys, monkeypatch):
    parser = cli.build_parser()
    (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
    assert set(commands) == {*_COMMAND_ARGVS, "verify"}
    argvs = [*_COMMAND_ARGVS.values(), *(["verify", suite] for suite in cli.SUITES)]
    rejected = []
    for argv in argvs:
        args = parser.parse_args(argv)
        declared = cli.SUITES[args.suite].formats if argv[0] == "verify" else args.formats
        monkeypatch.setattr(cli, args.func.__name__, _no_work)
        for fmt in set(cli._FORMATS) - set(declared):
            code, out, err = run_cli(capsys, "--format", fmt, *argv)
            assert (code, out) == (2, ""), (fmt, argv)
            assert f"{fmt} output is not defined" in err
            rejected.append(f"{fmt} {' '.join(argv)}")
    assert "csv verify claims" in rejected and "plain phi-samples --denom 30" in rejected


# a small bound for each bound flag a suite can read
_SMALL_BOUNDS = {None: [], "--q-max": ["--q-max", "40"], "--j-max": ["--j-max", "40"],
                 "--s-max": ["--s-max", "20"]}


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_every_suite_passes_at_a_small_bound(capsys, suite):
    argv = ["verify", suite, *_SMALL_BOUNDS[cli.SUITES[suite].flag]]
    code, out, _ = run_cli(capsys, "--format", "json", *argv)
    assert code == 0
    payload = json.loads(out)
    reports = payload if isinstance(payload, list) else [payload]
    assert reports and all(r["passed"] for r in reports)
    code, out, _ = run_cli(capsys, "--format", "plain", *argv)
    assert code == 0
    # a report's failures, expected ones included, follow it on indented lines
    heads = [line for line in out.splitlines() if not line.startswith("  failure at ")]
    assert [line.split()[:2] for line in heads] == [["PASS", r["lemma_id"] + ":"] for r in reports]


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_a_flag_the_suite_does_not_read_is_rejected(capsys, monkeypatch, suite):
    read = cli.SUITES[suite].flag
    monkeypatch.setitem(cli.SUITES, suite, cli.SUITES[suite]._replace(run=_no_work))
    monkeypatch.setattr(underapprox, "threshold_sweep", _no_work)
    assert cli._SUITE_FLAGS == ("--q-max", "--j-max", "--s-max", "--jobs")
    unread = [f for f in cli._SUITE_FLAGS if f not in (read, "--jobs" if read == "--q-max" else None)]
    for flag in unread:
        for fmt in cli.SUITES[suite].formats:
            code, out, err = run_cli(capsys, "--format", fmt, "verify", suite, flag, "2")
            assert (code, out) == (cli.EXIT_DOMAIN, ""), (flag, fmt)
            assert err == f"domain error: verify {suite} does not read {flag}\n"


def test_verify_help_names_each_flags_suites_and_default(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one help line per flag
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()
             if line.startswith("  --")}
    for flag in ("--q-max", "--j-max", "--s-max", "--jobs"):
        readers = [name for name, s in cli.SUITES.items()
                   if s.flag == flag or (flag == "--jobs" and s.flag == "--q-max")]
        named = [word for word in re.findall(r"\w+", lines[flag]) if word in cli.SUITES]
        assert named == readers, flag
        defaults = {1} if flag == "--jobs" else {cli.SUITES[name].default for name in readers}
        assert all(f"(default {d})" in lines[flag] for d in defaults), flag


@pytest.mark.parametrize("suite", ["lp1", "lp11", "lp50"])
def test_lemma_sweeps_match_the_benchmark_reference(capsys, suite):
    # the reference holds each suite's exit code and stdout sha256 at q_max 1500
    argv = ["--format", "json", "verify", suite, "--q-max", "1500", "--jobs", "1"]
    expected = json.loads(REFERENCE.read_text())[" ".join(argv)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == expected["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "verify", "lp1", "--q-max", "60")
    _, out2, _ = run_cli(capsys, "verify", "lp1", "--q-max", "60")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "verify", "lp1", "--q-max", "60", "--jobs", "2")
    assert out1 == out3


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["verify", "lp1", "--q-max", "60"], lambda: lemmas.verify_lp1(60).to_json_dict()),
        (
            ["best", "5", "16", "--m", "5"],
            lambda: underapprox.best_m_term(Fraction(5, 16), 5).to_json_dict(),
        ),
    ],
)
def test_json_report_is_json_dumps_in_one_write(monkeypatch, argv, payload):
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(argv) == 0
    assert out.getvalue() == json.dumps(payload(), indent=2) + "\n"
    assert out.writes == 1


def _threshold_json_via_json_dump(q_max):
    """The threshold report built as a dict and encoded by json.dumps."""
    rows = list(underapprox.threshold_sweep(q_max))
    payload = underapprox.verify_threshold_rows(rows, q_max).to_json_dict()
    payload["rows"] = [
        {
            "p": p,
            "q": q,
            "upsilon": ups,
            "greedy_is_best": greedy_is_best,
            "unique": unique,
            "ties": [list(t) for t in ties],
            "losses": [list(t) for t in losses],
        }
        for p, q, ups, greedy_is_best, unique, ties, losses in rows
    ]
    return json.dumps(payload, indent=2) + "\n"


# q < 11 has no observations; 17 adds the 10/17 tie and the first losses;
# 90 has more rows than one write of the row encoder holds; 131 adds the
# first row where greedy loses to several optimal pairs (13/131)
@pytest.mark.parametrize("q_max", [2, 3, 10, 17, 40, 90, 131])
def test_threshold_json_is_json_dump_byte_for_byte(capsys, q_max):
    code, out, _ = run_cli(capsys, "verify", "threshold", "--q-max", str(q_max))
    assert code == 0
    assert out == _threshold_json_via_json_dump(q_max)


def _threshold_csv_via_csv_writer(q_max):
    """The threshold rows as csv.writer writes them."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["p", "q", "upsilon", "greedy_is_best", "unique", "ties", "losses"])
    for p, q, ups, greedy_is_best, unique, ties, losses in underapprox.threshold_sweep(q_max):
        writer.writerow(
            [
                p,
                q,
                ups,
                greedy_is_best,
                unique,
                ";".join(f"{a}:{b}" for a, b in ties),
                ";".join(f"{a}:{b}" for a, b in losses),
            ]
        )
    return out.getvalue()


# 17 has the 10/17 tie and the first losses; 90 has more rows than one write;
# 131 has the first loss to several optimal pairs (13/131)
@pytest.mark.parametrize("q_max", [2, 17, 90, 131])
def test_threshold_csv_is_csv_writer_byte_for_byte(capsys, q_max):
    code, out, _ = run_cli(capsys, "--format", "csv", "verify", "threshold", "--q-max", str(q_max))
    assert code == 0
    assert out == _threshold_csv_via_csv_writer(q_max)
    assert q_max != 90 or out.count("\n") > cli._ROWS_PER_WRITE + 1


# one row of each kind: greedy the unique best (1/2), greedy best with a
# tie (7/10), greedy losing to one pair (5/11) and to several (13/131)
_ROW_KINDS = [
    (1, 2, 1, True, True, (), ()),
    (7, 10, 4, True, False, ((3, 3),), ()),
    (5, 11, 4, False, True, (), ((4, 5),)),
    (13, 131, 12, False, False, (), ((12, 63), (14, 36))),
]


@pytest.mark.parametrize("row", _ROW_KINDS, ids=lambda row: "%d/%d" % row[:2])
def test_row_encoders_match_json_dumps_and_csv_writer(row):
    p, q, ups, greedy_is_best, unique, ties, losses = row
    assert row in underapprox._threshold_rows_for_q(q)
    obj = {
        "p": p,
        "q": q,
        "upsilon": ups,
        "greedy_is_best": greedy_is_best,
        "unique": unique,
        "ties": [list(t) for t in ties],
        "losses": [list(t) for t in losses],
    }
    # the template is laid out as an item of the report's "rows" list
    in_list = '{\n  "rows": [' + cli._rows_json([row]) + "\n  ]\n}"
    assert in_list == json.dumps({"rows": [obj]}, indent=2)

    expected = io.StringIO()
    csv.writer(expected, lineterminator="\n").writerow(
        [
            p,
            q,
            ups,
            greedy_is_best,
            unique,
            ";".join(f"{a}:{b}" for a, b in ties),
            ";".join(f"{a}:{b}" for a, b in losses),
        ]
    )
    assert cli._rows_csv([row]) == expected.getvalue()


def test_threshold_failure_exits_5_in_every_format(capsys, monkeypatch):
    rows_for_q = underapprox._threshold_rows_for_q

    def broken(q):  # 1/7 has upsilon 1, so greedy must be its unique best
        rows = rows_for_q(q)
        if q == 7:
            rows[0] = rows[0][:4] + (False,) + rows[0][5:]
        return rows

    monkeypatch.setattr(underapprox, "_threshold_rows_for_q", broken)
    for fmt in ("json", "csv", "plain"):
        code, out, _ = run_cli(capsys, "--format", fmt, "verify", "threshold", "--q-max", "20")
        assert code == cli.EXIT_VERIFY_FAILED, fmt
        if fmt == "json":
            # the failing report's head is laid out as json.dumps lays it out
            assert out == _threshold_json_via_json_dump(20)
            payload = json.loads(out)
            assert payload["failures"] == [[1, 7]] and payload["passed"] is False
            assert payload["observations"]
        elif fmt == "csv":
            assert out == _threshold_csv_via_csv_writer(20)
    assert out.startswith("FAIL threshold") and "failure at (1, 7)" in out


def test_unbeaten_counterexample_exits_6_in_every_format(capsys, monkeypatch):
    rows_for_q = underapprox._threshold_rows_for_q

    def broken(q):  # 5/16 = construct(4): greedy provably loses there
        rows = rows_for_q(q)
        if q == 16:
            rows = [(5, 16, 4, True, True, (), ()) if r[0] == 5 else r for r in rows]
        return rows

    monkeypatch.setattr(underapprox, "_threshold_rows_for_q", broken)
    for fmt in ("json", "csv", "plain"):
        code, _, err = run_cli(capsys, "--format", fmt, "verify", "threshold", "--q-max", "20")
        assert code == cli.EXIT_INVARIANT, fmt
        assert err.startswith("invariant violation") and "(5, 16)" in err


def test_competitor_outside_its_interval_exits_6_in_every_format(capsys, monkeypatch):
    rows_for_q = underapprox._threshold_rows_for_q

    def broken(q):  # 5/11 loses to (4, 5); its greedy pair is (3, 9), so x2 <= 8
        rows = rows_for_q(q)
        if q == 11:
            rows = [r[:6] + (((4, 9),),) if r[0] == 5 else r for r in rows]
        return rows

    monkeypatch.setattr(underapprox, "_threshold_rows_for_q", broken)
    for fmt in ("json", "csv", "plain"):
        code, _, err = run_cli(capsys, "--format", fmt, "verify", "threshold", "--q-max", "20")
        assert code == cli.EXIT_INVARIANT, fmt
        assert err.startswith("invariant violation") and "(4, 9) of 5/11" in err


# the benchmark's threshold argvs: json at q_max 400 (--jobs 1) and csv at
# q_max 700, recorded at --jobs 2 and run here at --jobs 1
@pytest.mark.parametrize("fmt, q_max, jobs", [("json", 400, 1), ("csv", 700, 2)])
def test_threshold_matches_the_benchmark_reference(capsys, fmt, q_max, jobs):
    argv = ["--format", fmt, "verify", "threshold", "--q-max", str(q_max)]
    expected = json.loads(REFERENCE.read_text())[" ".join(argv + ["--jobs", str(jobs)])]
    code, out, _ = run_cli(capsys, *argv, "--jobs", "1")
    assert code == expected["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_threshold_output_does_not_depend_on_jobs(capsys, fmt):
    argv = ["--format", fmt, "verify", "threshold", "--q-max", "60"]
    code1, out1, _ = run_cli(capsys, *argv, "--jobs", "1")
    code2, out2, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2 and out1


@pytest.mark.parametrize("suite", ["lp1", "threshold"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_domain_error(capsys, suite, jobs):
    code, out, err = run_cli(
        capsys, "--format", "plain", "verify", suite, "--q-max", "30", "--jobs", jobs
    )
    assert code == cli.EXIT_DOMAIN
    assert out == "" and "jobs" in err


def test_worker_count_clamps_to_cpu_count(monkeypatch):
    # the affinity mask, where there is one, wins over the host's count
    monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(_pool.os, "cpu_count", lambda: 8)
    assert [_pool.worker_count(j) for j in (1, 2, 3, 10_000)] == [1, 2, 2, 2]
    # `taskset -c 0` on a 2-CPU host
    monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(_pool.os, "cpu_count", lambda: 2)
    assert _pool.worker_count(2) == 1
    # without an affinity call, the host's count, or 1 when it is unknown
    monkeypatch.delattr(_pool.os, "sched_getaffinity")
    assert [_pool.worker_count(j) for j in (1, 2, 3, 10_000)] == [1, 2, 2, 2]
    monkeypatch.setattr(_pool.os, "cpu_count", lambda: None)
    assert _pool.worker_count(8) == 1


def test_pool_pulls_items_only_a_window_ahead():
    pulled = 0

    def counted():
        nonlocal pulled
        for i in range(10**5):
            pulled += 1
            yield -i

    results = _pool.ordered_map(abs, counted(), jobs=2, chunksize=16)
    with closing(results):
        assert next(results) == 0
        assert pulled <= (_pool._CHUNKS_PER_JOB * 2 + 1) * 16
        assert list(islice(results, 999)) == list(range(1, 1000))
    # closed early: busy workers are terminated, idle ones stop on EOF
    assert multiprocessing.active_children() == []
    assert list(_pool.ordered_map(abs, range(0, -50, -1), jobs=2, chunksize=3)) == list(range(50))


def test_pool_raises_a_worker_exception_as_itself():
    # with chunksize 1 the first window sends all four items to the one worker
    with pytest.raises(ValueError):
        list(_pool.ordered_map(math.sqrt, [4, 9, -1, 16], jobs=2, chunksize=1))
    assert multiprocessing.active_children() == []


def test_pool_stops_several_workers_by_closing_their_pipes():
    # A forked worker inherits the parent's end of its own pipe and of each
    # earlier worker's; unless it closes them it never sees EOF, and join
    # hangs. jobs=3 directly (worker_count would clamp it) gives two workers.
    script = (
        "import multiprocessing\n"
        "from egfrac import _pool\n"
        "results = list(_pool.ordered_map(abs, range(0, -200, -1), jobs=3, chunksize=3))\n"
        "print(results == list(range(200)), multiprocessing.active_children())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_cli_env(), capture_output=True, text=True, timeout=30
    )
    assert proc.stdout == "True []\n", proc.stderr


def test_invariant_violation_exit_code(capsys, monkeypatch):
    # b_m = n * a_m always makes condition (ii) hold; at 1/7, m = 1, n = 2
    # condition (i) fails, so the provably equivalent conditions disagree
    g_func = greedy.g_func
    monkeypatch.setattr(greedy, "superior_denominator", lambda e, n: n * g_func(e))
    code, out, err = run_cli(capsys, "step", "1", "7", "--m", "1", "--n", "2")
    assert code == cli.EXIT_INVARIANT == 6
    assert out == ""
    assert err.startswith("invariant violation: step conditions disagree")
    assert err.count("\n") == 1


def test_closed_stdout_exits_quietly():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    # leaving the with block closes both pipes and reaps the process
    with subprocess.Popen(
        [sys.executable, "-m", "egfrac.cli", "--format", "csv",
         "verify", "threshold", "--q-max", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        try:
            assert proc.stdout.readline() == b"p,q,upsilon,greedy_is_best,unique,ties,losses\n"
            proc.stdout.close()  # like `| head -1`
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert code == cli.EXIT_BROKEN_PIPE
    assert err == b""


def test_a_program_run_freezes_its_start_up_heap(capsys):
    # main() with no argv is the program: it freezes the heap and leaves
    # the collector on
    script = (
        "import gc, sys; from egfrac.cli import main; code = main(); "
        "print(gc.get_freeze_count(), gc.isenabled(), file=sys.stderr); sys.exit(code)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "upsilon", "7", "54"],
        env=_cli_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    frozen, enabled = proc.stderr.split()
    assert int(frozen) > 0 and enabled == "True"
    # an in-process call with argv prints the same and freezes nothing
    before = gc.get_freeze_count()
    code, out, _ = run_cli(capsys, "upsilon", "7", "54")
    assert code == 0 and out == proc.stdout
    assert gc.get_freeze_count() == before


# what start-up must not import: dataclasses pulls in inspect and ast,
# concurrent.futures pulls in logging
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "concurrent.futures", "logging")


def _cli_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _modules_loaded_by(code: str) -> set:
    """Modules that ``code`` adds to a fresh interpreter's ``sys.modules``.

    The interpreter runs with -S: a site-packages .pth hook can import
    modules such as ``tempfile`` before ``code`` runs, hiding its imports.
    """
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "sys.stdout.flush()\n"
        "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], env=_cli_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_start_up_imports_stay_light():
    loaded = _modules_loaded_by("import egfrac.cli\nimport gc\nassert gc.get_freeze_count() == 0")
    assert "egfrac.cli" in loaded
    assert loaded.isdisjoint(HEAVY_MODULES), sorted(loaded & set(HEAVY_MODULES))
    # json threshold runs alone spool their rows to a temporary file
    assert "tempfile" not in loaded
    # the process pool is imported by --jobs > 1 only
    argv = ["--format", "csv", "verify", "threshold", "--q-max", "30"]
    loaded = _modules_loaded_by(
        f"from egfrac.cli import main\nassert main({argv!r}) == 0"
    )
    assert "egfrac.underapprox" in loaded
    assert loaded.isdisjoint({"concurrent.futures", "logging", "tempfile"}), loaded
    # nor does the --jobs pool bring concurrent.futures or logging
    loaded = _modules_loaded_by(
        f"from egfrac.cli import main\nassert main({argv + ['--jobs', '2']!r}) == 0"
    )
    assert "multiprocessing" in loaded or _pool.worker_count(2) < 2
    assert loaded.isdisjoint({"concurrent.futures", "logging"}), loaded


two_cpus = pytest.mark.skipif(_pool.worker_count(2) < 2, reason="--jobs 2 needs two CPUs")


@two_cpus
def test_sweep_fails_fast_when_a_worker_dies():
    # a worker killed mid-sweep (say by the OOM killer) must end the sweep
    # with an error, not leave it waiting for the lost chunk
    script = (
        "import multiprocessing, os, signal\n"
        "from egfrac import underapprox\n"
        "rows = underapprox.threshold_sweep(3000, jobs=2)\n"
        "next(rows)\n"
        "os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)\n"
        "try:\n"
        "    for _ in rows:\n"
        "        pass\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_cli_env(), capture_output=True, text=True, timeout=30
    )
    assert proc.stdout == "BrokenProcessPool\n", proc.stderr


POOLED_ARGVS = [
    *(["verify", suite, "--q-max", "300"] for suite in ("lp1", "lp11", "lp50")),
    ["--format", "csv", "verify", "threshold", "--q-max", "120"],
]


# macOS starts pool workers with spawn, and Linux with forkserver from
# Python 3.14 on: the workers then import everything they run afresh.
@two_cpus
@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pooled_sweeps_without_fork_match_jobs_1(capsys, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    script = (
        "import io, json, multiprocessing, sys\n"
        f"multiprocessing.set_start_method({method!r}, force=True)\n"
        "from egfrac.cli import main\n"
        "results = []\n"
        f"for argv in {POOLED_ARGVS!r}:\n"
        "    sys.stdout = io.StringIO()\n"
        "    results.append([main(argv + ['--jobs', '2']), sys.stdout.getvalue()])\n"
        "sys.stdout = sys.__stdout__\n"
        "print(json.dumps(results))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_cli_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    pooled = json.loads(proc.stdout)
    for argv, (code, out) in zip(POOLED_ARGVS, pooled, strict=True):
        assert [code, out] == list(run_cli(capsys, *argv, "--jobs", "1")[:2]), argv


# The header is flushed just before the workers are forked, and the first
# row once they run: Ctrl-C after the one lands while the pool starts, after
# the other while it runs. The child starts with SIGINT at its default, as
# from an interactive shell: a child of a background job inherits it ignored.
@two_cpus
@pytest.mark.parametrize("lines_before", [1, 2])
def test_ctrl_c_ends_a_pooled_sweep(lines_before):
    proc = subprocess.Popen(
        [sys.executable, "-m", "egfrac.cli", "--format", "csv",
         "verify", "threshold", "--q-max", "3000", "--jobs", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(), start_new_session=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        expected = [b"p,q,upsilon,greedy_is_best,unique,ties,losses\n", b"1,2,1,True,True,,\n"]
        expected = expected[:lines_before]
        assert [proc.stdout.readline() for _ in expected] == expected
        os.killpg(proc.pid, signal.SIGINT)  # what Ctrl-C sends: parent and workers
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == -signal.SIGINT, err[-500:]
    assert b"KeyboardInterrupt" in err
    with pytest.raises(ProcessLookupError):  # no worker left in the process group
        os.killpg(proc.pid, 0)


# A worker stops when its pipe closes, so a CLI ended by SIGTERM (what
# `timeout` sends) or SIGKILL leaves none behind, under every start method.
# The workers hold the CLI's stderr too: EOF on it means all have exited.
@two_cpus
@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
@pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM], ids=["KILL", "TERM"])
def test_a_killed_cli_leaves_no_worker(method, signum):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    argv = ["--format", "csv", "verify", "threshold", "--q-max", "3000", "--jobs", "2"]
    script = (
        "import multiprocessing, sys\n"
        f"multiprocessing.set_start_method({method!r}, force=True)\n"
        "from egfrac.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    with subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(), start_new_session=True,
    ) as proc:
        try:
            # the first row comes once the workers run
            expected = [b"p,q,upsilon,greedy_is_best,unique,ties,losses\n", b"1,2,1,True,True,,\n"]
            assert [proc.stdout.readline() for _ in expected] == expected
            os.kill(proc.pid, signum)  # the CLI alone, not its group
            _, err = proc.communicate(timeout=10)
            assert b"Traceback" not in err, err[-500:]
            # init reaps the orphaned workers, not always at once
            with pytest.raises(ProcessLookupError):
                for _ in range(100):
                    os.killpg(proc.pid, 0)
                    time.sleep(0.1)
        finally:
            with suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
