"""Pointer statistics for postselected weak measurements.

A system observable A is coupled impulsively to the position q of a
Gaussian pointer through H = g delta(t - t0) A (x) p, with hbar = 1.  The
package computes the exact postselected pointer shifts in q and p at any
coupling strength, the first- and second-order weak-value approximations,
coupling-regime bounds on the shift magnitudes together with an optimizer
over pre/postselections, the which-path probability curves of the
three-box/pair-of-particles interference paradox, and the information the
device itself acquires about the system.
"""

from .bounds import BoundReport, ExtremePair, check_weak_bounds, optimize_pps
from .errors import (
    ContractError,
    DegenerateDenominatorError,
    InternalConsistencyError,
    OrthogonalSelectionError,
    RegimeError,
    UndefinedExtremeError,
    ValidationError,
    WeakMeterError,
)
from .exactengine import (
    GaussianPointer,
    GridSpec,
    MeasurementOutcome,
    MeasurementSetup,
    exact_shifts,
    grid_shifts,
)
from .hardy import ProbabilityPoint, probability_curve
from .infogain import InfoGainResult, info_curve
from .qcore import DensityOperator, HermitianObservable, ProjectionOperator, StateVector
from .scenario import load_scenario, parse_scenario, setup_to_json
from .verify import SUITE_NAMES, SuiteResult, run_suites
from .weakvalue import (
    WeakMoments,
    WeakValue,
    jozsa_shifts,
    schwarz_gap,
    second_order_shifts,
    weak_moments,
)

__version__ = "0.1.0"

__all__ = [
    "SUITE_NAMES",
    "BoundReport",
    "ContractError",
    "DegenerateDenominatorError",
    "DensityOperator",
    "ExtremePair",
    "GaussianPointer",
    "GridSpec",
    "HermitianObservable",
    "InfoGainResult",
    "InternalConsistencyError",
    "MeasurementOutcome",
    "MeasurementSetup",
    "OrthogonalSelectionError",
    "ProbabilityPoint",
    "ProjectionOperator",
    "RegimeError",
    "StateVector",
    "SuiteResult",
    "UndefinedExtremeError",
    "ValidationError",
    "WeakMeterError",
    "WeakMoments",
    "WeakValue",
    "check_weak_bounds",
    "exact_shifts",
    "grid_shifts",
    "info_curve",
    "jozsa_shifts",
    "load_scenario",
    "optimize_pps",
    "parse_scenario",
    "probability_curve",
    "run_suites",
    "schwarz_gap",
    "second_order_shifts",
    "setup_to_json",
    "weak_moments",
    "__version__",
]
