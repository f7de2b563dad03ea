"""A fixed reference program that measures how fast the host runs right now.

The benchmark runs it as a subprocess, under the same interpreter and
environment as the CLI, before and after every timed pass, and after
every second or so of CLI time inside a long one. It imports
nothing from ``egfrac``, so no change to the program moves its time; a
change in the host's speed (other tenants, clock scaling) moves both.
``run.py`` scales each pass's times by ``CAL_REF_S`` over the time of the
calibrations around it.

The work mimics the CLI's mix: interpreter start, small-integer loops with
``%`` and ``//`` (the kernels), row dicts and JSON encoding (the threshold
output), and ``Fraction`` sums (the m-term search). It writes one line and
exits 1 if its own result is not the expected one.

    python3 perfbench/calibration.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import gcd

KERNEL_Q = 1500
ROWS_Q = 200
# what the loops below must produce; see main()
EXPECTED = {"hits": 3878, "rows": 12151, "chars": 1151204, "sum": "7381/2520"}


def kernel_loop(q_max: int) -> int:
    """Divisor tests over a box, shaped like the lemma kernels."""
    hits = 0
    for q in range(4, q_max):
        for u in range(2, q):
            if (q + 3) % u == 0 and ((q + 3) // u) % 2 == 1:
                hits += 1
    return hits


def rows(q_max: int) -> list[dict]:
    """Threshold-like rows: one dict per reduced p/q."""
    out = []
    for q in range(2, q_max):
        for p in range(1, q):
            if gcd(p, q) == 1:
                out.append({"p": p, "q": q, "upsilon": (-q) % p, "greedy_is_best": p < 4})
    return out


def main() -> int:
    hits = kernel_loop(KERNEL_Q)
    table = rows(ROWS_Q)
    text = json.dumps({"rows": table}, indent=2)
    total = sum(Fraction(1, n) for n in range(1, 11))
    got = {"hits": hits, "rows": len(table), "chars": len(text), "sum": str(total)}
    print(json.dumps(got))
    return 0 if got == EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main())
