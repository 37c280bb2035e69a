"""Exact solver for the self-employed health insurance deduction under the ACA.

The premium tax credit depends on household income, household income
depends on the self-employed health insurance deduction, and the allowed
deduction depends on the credit.  This package models that circular
calculation exactly (integer cents, exact rationals), reproduces the
iterative and simplified methods from current IRS guidance including
their failure modes, and solves the underlying constraint reliably by
bisection, with a brute-force oracle and an income scanner to verify and
map the behavior.
"""

from ._kv import DocumentError
from .bisection import (
    Certificate,
    InfeasibleAtLowerBound,
    Solution,
    SolveMethod,
    ThresholdProblem,
    optimal_deduction,
    threshold_search,
    whole_dollar_view,
)
from .figures import BREAKPOINTS, FigureTable, applicable_figure
from .money import Money, RoundingMode, money_ratio, round_money
from .params import (
    RepaymentTable,
    TaxYearParams,
    bundled_years,
    dump_tax_year_params,
    load_tax_year_params,
    tax_year_params,
)
from .ptc import (
    PtcContext,
    expected_contribution,
    household_income,
    ptc_base,
    ptc_of_deduction,
    student_loan_deduction,
)
from .reconcile import UNLIMITED, NetOutcome, Unlimited, reconcile, repayment_limitation
from .scenario import FilingStatus, Scenario, dump_scenario, parse_scenario

__version__ = "0.1.0"

# The iteration method and the scanner load on first use, so that a solve
# (``ptcsolve solve``) does not pay for importing them.
_LAZY = dict.fromkeys(
    (
        "ScanRecord",
        "ScanResult",
        "brute_force_max_feasible",
        "scan_divergence",
        "scan_records",
        "summarize_intervals",
        "write_csv",
    ),
    "analysis",
) | dict.fromkeys(
    (
        "Cycle",
        "IterationOutcome",
        "IterationPoint",
        "IterationStatus",
        "liminf_deduction",
        "run_iteration",
        "simplified_method",
        "step",
    ),
    "iteration",
)


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "BREAKPOINTS",
    "Certificate",
    "Cycle",
    "DocumentError",
    "FigureTable",
    "FilingStatus",
    "InfeasibleAtLowerBound",
    "IterationOutcome",
    "IterationPoint",
    "IterationStatus",
    "Money",
    "NetOutcome",
    "PtcContext",
    "RepaymentTable",
    "RoundingMode",
    "ScanRecord",
    "ScanResult",
    "Scenario",
    "Solution",
    "SolveMethod",
    "TaxYearParams",
    "ThresholdProblem",
    "UNLIMITED",
    "Unlimited",
    "applicable_figure",
    "brute_force_max_feasible",
    "bundled_years",
    "dump_scenario",
    "dump_tax_year_params",
    "expected_contribution",
    "household_income",
    "liminf_deduction",
    "load_tax_year_params",
    "money_ratio",
    "optimal_deduction",
    "parse_scenario",
    "ptc_base",
    "ptc_of_deduction",
    "reconcile",
    "repayment_limitation",
    "round_money",
    "run_iteration",
    "scan_divergence",
    "scan_records",
    "simplified_method",
    "step",
    "student_loan_deduction",
    "summarize_intervals",
    "tax_year_params",
    "threshold_search",
    "whole_dollar_view",
    "write_csv",
]
