"""Smoke test of the benchmark's entry point, run as BENCHMARK.json runs it.

``perfbench/run.py`` imports from ``egfrac`` before it prints anything, so
a change to the package that breaks one of those imports leaves its
stdout empty. This runs one short pass from the checkout and reads the
result line.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_entry_point_prints_a_correct_result_line():
    argv = ["--workload", "threshold-json", "--seed", "1", "--seconds", "0", "--trace", "0"]
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
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} <= set(result["metrics"])
