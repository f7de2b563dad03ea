"""Exact-arithmetic toolkit for greedy Egyptian-fraction underapproximation.

Everything runs on arbitrary-precision rationals: greedy expansions and
their per-step analysis (`egfrac.greedy`), complete searches for best
two-term and m-term underapproximations (`egfrac.underapprox`),
constructive counterexamples for every divisibility index k >= 4
(`egfrac.counterexamples`), and finite-range sweeps of the supporting
floor inequalities (`egfrac.lemmas`). The sweep inner loops are the
integer-only pure-Python kernels in `egfrac._backend`; `backend_name()`
names them in benchmark records.
"""

from ._backend import backend_name
from .counterexamples import (
    TABLE_1,
    TABLE_2,
    Counterexample,
    beating_pair,
    check_fractional_claims,
    check_root_interval,
    check_s5,
    construct,
    select_v,
    verify_tables,
)
from .errors import (
    DigitGuardExceeded,
    DomainError,
    InvariantViolation,
    SearchInconclusive,
)
from .greedy import (
    Expansion,
    StepReport,
    UpsilonProfile,
    closed_form_p_divides_q_plus_1,
    closed_form_upsilon2_odd_q,
    closed_form_upsilon_divides_q,
    delta_index,
    ell_index,
    eventual_quadratic_recurrence,
    expand,
    g_func,
    greedy_steps,
    growth_condition_check,
    phi,
    step_report,
    superior_denominator,
    upsilon,
    upsilon_profile,
)
from .lemmas import (
    lp1_case_survivors,
    lp11_case_survivors,
    lp50_congruence_solvable_ks,
    verify_lp1,
    verify_lp11,
    verify_lp12,
    verify_lp50,
)
from .report import VerificationReport
from .underapprox import (
    UnderapproxResult,
    best_m_term,
    threshold_sweep,
)

__version__ = "0.1.0"
