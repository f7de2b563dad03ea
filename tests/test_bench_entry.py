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
    for kernel in ("lp1_point", "lp11_point", "lp50_point", "two_term_scan"):
        assert f"backend.calls.{kernel}" in metrics
    assert metrics["backend.calls"] == metrics["lemmas.points"] > 0
