"""Smoke test of the benchmark's entry point, run as BENCHMARK.json runs it.

``perfbench/run.py`` imports from ``egfrac`` before it prints anything, so
a change to the package that breaks one of those imports leaves its
stdout empty. These run short passes from the checkout, untraced and
traced, and read the result line.
"""

import json
import subprocess
import sys
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parents[1]


def _result_line(*argv):
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    return result


def test_benchmark_entry_point_prints_a_correct_result_line():
    result = _result_line(
        "--workload", "threshold-json", "--seed", "1", "--seconds", "0", "--trace", "0"
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} <= set(result["metrics"])


def test_traced_lemma_sweep_counts_one_kernel_call_per_point():
    # lemmas.self_s is span time minus a replayed kernel estimate, so its
    # sign is not a property of the code and is not checked
    result = _result_line(
        "--workload", "lemma-sweep", "--seed", "1", "--seconds", "0", "--trace", "1"
    )
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # a result that lacks a declared per-layer metric is refused as malformed
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics)
    assert metrics["backend.calls"] == metrics["lemmas.points"] > 0
    assert metrics["backend.calls.two_term_scan"] == 0
    # the pass's q_max is drawn from the seed; every suite's box at it
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    (q_max,) = {int(argv[5]) for argv in workloads.make_pass("lemma-sweep", 1)}
    offset2 = list(oracles.lemma_box(q_max, 2, 3))
    offset3 = list(oracles.lemma_box(q_max, 3, 4))
    assert metrics["backend.calls.lp1_point"] == sum(2 * (u - 1) for _, u in offset2)
    assert metrics["backend.calls.lp11_point"] == sum(3 * (u - 1) for _, u in offset3)
    assert metrics["backend.calls.lp50_point"] == len(offset3)
