"""Exact arithmetic for Grothendieck polynomials, two integrable lattice
models whose wavefunctions they describe, and melting-crystal partition
functions, with cross-verification suites tying the three together.

Everything computes over `fractions.Fraction` (or truncated integer series),
so every identity check in this package is exact, not floating point.
"""

from .errors import (
    DegeneratePointError,
    IdentityError,
    OutOfBoxError,
    ParameterError,
    PoleError,
    PrecisionError,
)
from .exactcore import LaurentPoly, Matrix, TruncatedSeries, parse_rat, rat_str
from .grothendieck import (
    cauchy_lhs,
    cauchy_rhs,
    groth_chain,
    groth_det,
    schur_det,
    skew_multi,
    skew_single,
    summation_lhs,
    summation_rhs,
)
from .suites import SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "DegeneratePointError",
    "IdentityError",
    "OutOfBoxError",
    "ParameterError",
    "PoleError",
    "PrecisionError",
    "LaurentPoly",
    "Matrix",
    "TruncatedSeries",
    "parse_rat",
    "rat_str",
    "cauchy_lhs",
    "cauchy_rhs",
    "groth_chain",
    "groth_det",
    "schur_det",
    "skew_multi",
    "skew_single",
    "summation_lhs",
    "summation_rhs",
    "SuiteReport",
    "run_suite",
    "__version__",
]
