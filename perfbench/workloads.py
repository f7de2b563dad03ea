"""The benchmark's workloads: seeded lists of ``egfrac`` CLI invocations.

A pass is the list of argv vectors one workload runs. The seed picks
``--q-max`` from a narrow band around each sweep's size, and picks the
fractions of the m-term search. The program only ever receives flags.

Why each workload exists (see also ``BENCHMARK.json``):

* ``lemma-sweep``: lemma box sweeps, almost all time in ``lemmas`` and the
  kernels, with under 1 KB of output. The single-process baseline.
* ``threshold-json``: a small sweep whose time goes mostly to building
  row dicts and encoding 18 MB of JSON in ``cli``.
* ``threshold-csv-jobs2``: the same sweep through the ``--jobs`` process
  pool and the csv writer, where encoding is cheap.
* ``mterm-search``: the only workload that runs ``best_m_term``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

SETUP_ARGV = ("upsilon", "7", "54")

LEMMA_SUITES = ("lp1", "lp11", "lp50")


@dataclass(frozen=True)
class Sizes:
    lemma_q: int
    threshold_json_q: int
    threshold_csv_q: int
    # each q_max is drawn from [size - band, size + band]
    band: int
    mterm_q_lo: int
    mterm_q_hi: int
    mterm_m: int
    # one fixed node budget for every search of the pass
    mterm_budget: int
    # a fraction is easy when its reference search finishes within this
    mterm_easy_budget: int
    # fractions per pass whose reference run was inconclusive (hard,
    # fixed) and decided (easy, drawn by the seed)
    mterm_hard: int
    mterm_easy: int
    # one search at m + 1 that the seed code cannot finish within budget
    mterm_extra: tuple[str, ...]


FULL = Sizes(
    lemma_q=1500, threshold_json_q=400, threshold_csv_q=700, band=2,
    mterm_q_lo=20, mterm_q_hi=40, mterm_m=4, mterm_budget=500_000,
    mterm_easy_budget=50_000, mterm_hard=4, mterm_easy=8, mterm_extra=("10", "17"),
)

# for the benchmark's own tests: every workload in well under a second
TINY = Sizes(
    lemma_q=80, threshold_json_q=30, threshold_csv_q=40, band=2,
    mterm_q_lo=5, mterm_q_hi=9, mterm_m=3, mterm_budget=2_000,
    mterm_easy_budget=200, mterm_hard=1, mterm_easy=3, mterm_extra=("10", "17"),
)

WORKLOADS = ("lemma-sweep", "threshold-json", "threshold-csv-jobs2", "mterm-search")


def _draw_q(rng: random.Random, size: int, band: int) -> str:
    return str(rng.randint(size - band, size + band))


def lemma_argv(suite: str, q_max) -> tuple[str, ...]:
    return ("--format", "json", "verify", suite, "--q-max", str(q_max), "--jobs", "1")


def threshold_argv(fmt: str, q_max, jobs: int) -> tuple[str, ...]:
    return ("--format", fmt, "verify", "threshold", "--q-max", str(q_max), "--jobs", str(jobs))


def best_argv(p, q, m, budget) -> tuple[str, ...]:
    return ("best", str(p), str(q), "--m", str(m), "--budget", str(budget))


def mterm_pool(sizes: Sizes) -> list[tuple[int, int]]:
    """Every reduced p/q the m-term workload may draw from."""
    return [
        (p, q)
        for q in range(sizes.mterm_q_lo, sizes.mterm_q_hi + 1)
        for p in range(1, q)
        if gcd(p, q) == 1
    ]


def make_pass(name: str, seed: int, sizes: Sizes = FULL, reference=None) -> list[tuple[str, ...]]:
    """The argv vectors of one pass of workload ``name``.

    ``reference`` (argv key -> reference outcome) splits the m-term pool
    into hard and easy fractions; without it every fraction counts as easy.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "lemma-sweep":
        q_max = _draw_q(rng, sizes.lemma_q, sizes.band)
        return [lemma_argv(suite, q_max) for suite in LEMMA_SUITES]
    if name == "threshold-json":
        return [threshold_argv("json", _draw_q(rng, sizes.threshold_json_q, sizes.band), 1)]
    if name == "threshold-csv-jobs2":
        return [threshold_argv("csv", _draw_q(rng, sizes.threshold_csv_q, sizes.band), 2)]
    if name == "mterm-search":
        return _mterm_pass(rng, sizes, reference or {})
    raise KeyError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def _mterm_pass(rng: random.Random, sizes: Sizes, reference) -> list[tuple[str, ...]]:
    """Fixed hard fractions plus a seeded draw of easy ones.

    A search that runs out of budget costs the whole budget, and one that
    finishes near it costs almost as much, so a draw over the whole pool
    would swing the pass time with the few costly fractions it picked.
    The hard fractions (inconclusive in the reference run) are therefore
    the same for every seed, spread evenly over the pool. The seed draws
    the others from the easy fractions, whose reference search finished
    within a tenth of the budget. Fractions in between are never drawn.
    """
    m, budget = sizes.mterm_m, sizes.mterm_budget

    def reference_exit(p, q, b):
        ref = reference.get(" ".join(best_argv(p, q, m, b)))
        return None if ref is None else ref["exit"]

    pool = mterm_pool(sizes)
    hard = [pq for pq in pool if reference_exit(*pq, budget) == 4]
    easy = [pq for pq in pool if reference_exit(*pq, sizes.mterm_easy_budget) in (0, None)]
    picked = hard[:: max(1, len(hard) // sizes.mterm_hard)][: sizes.mterm_hard]
    picked += rng.sample(easy, sizes.mterm_hard + sizes.mterm_easy - len(picked))
    picked.sort(key=lambda pq: (pq[1], pq[0]))
    p, q = sizes.mterm_extra
    return [best_argv(p, q, m, budget) for p, q in picked] + [best_argv(p, q, m + 1, budget)]


def all_argvs(sizes: Sizes = FULL) -> list[tuple[str, ...]]:
    """Every argv any seed can produce, for building the reference."""
    out = [SETUP_ARGV]
    for delta in range(-sizes.band, sizes.band + 1):
        out += [lemma_argv(s, sizes.lemma_q + delta) for s in LEMMA_SUITES]
        out.append(threshold_argv("json", sizes.threshold_json_q + delta, 1))
        out.append(threshold_argv("csv", sizes.threshold_csv_q + delta, 2))
    m, budget = sizes.mterm_m, sizes.mterm_budget
    for b in (budget, sizes.mterm_easy_budget):
        out += [best_argv(p, q, m, b) for p, q in mterm_pool(sizes)]
    out.append(best_argv(*sizes.mterm_extra, m + 1, budget))
    return out
