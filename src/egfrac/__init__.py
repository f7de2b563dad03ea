"""Exact-arithmetic toolkit for greedy Egyptian-fraction underapproximation.

Everything runs on arbitrary-precision rationals: greedy expansions and
their per-step analysis (`egfrac.greedy`), complete searches for best
two-term and m-term underapproximations (`egfrac.underapprox`),
constructive counterexamples for every divisibility index k >= 4
(`egfrac.counterexamples`), and finite-range sweeps of the supporting
floor inequalities (`egfrac.lemmas`). The modules are the API. The sweep
inner loops are the integer-only pure-Python kernels in
`egfrac._backend`; `backend_name()` names them in benchmark records.
"""

from ._backend import backend_name

__version__ = "0.1.0"
