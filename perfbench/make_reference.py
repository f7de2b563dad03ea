#!/usr/bin/env python3
"""Rebuild ``reference.json``: the stdout hash of every argv a seed can produce.

Run from the root of a source checkout, on code whose output is known to
be right:

    python3 perfbench/make_reference.py

Each output must pass the content checks of ``outputs.py`` before its
hash is recorded. Output bytes must not change between versions of the
program, so rebuilding the reference is only for a deliberate change of
format or of the workloads. The m-term workload picks its hard and easy
fractions by the exit codes recorded here, so a rebuild on code with a
different search also changes that workload's inputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import outputs  # noqa: E402
import procs  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    scratch = ROOT / ".bench_build" / "perfbench" / "reference"
    scratch.mkdir(parents=True, exist_ok=True)
    procs.build(ROOT)
    env = procs.pinned_env(ROOT)
    reference = {}
    argvs = workloads.all_argvs()
    for i, argv in enumerate(argvs, 1):
        run = procs.run_cli(ROOT, env, argv, scratch)
        outcome = outputs.check(argv, run.exit_code, run.stdout, run.stderr, None)
        if not outcome.ok:
            print(f"{' '.join(argv)}: {outcome.reason}", file=sys.stderr)
            return 1
        reference[" ".join(argv)] = {"exit": run.exit_code, "sha256": outcome.sha256}
        print(f"[{i}/{len(argvs)}] exit {run.exit_code} {run.wall_s:.2f}s {' '.join(argv)}",
              file=sys.stderr)
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    (HERE / "reference.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
