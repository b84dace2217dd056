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

from .bounds import (
    BOUND_RELATIVE_TOL,
    WEAK_REGIME_LIMIT,
    BoundReport,
    ExtremePair,
    check_weak_bounds,
    extreme_shifts_projector,
    k_value,
    optimize_pps,
)
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
from .hardy import (
    PATH_LABELS,
    HardyScenario,
    ProbabilityPoint,
    build_hardy,
    closed_form_shifts,
    hardy_probabilities,
    probability_curve,
)
from .infogain import (
    InfoGainResult,
    info_curve,
    information_gain,
    reduced_device_states,
)
from .qcore import (
    DensityOperator,
    HermitianObservable,
    ProjectionOperator,
    StateVector,
    spectral_decompose,
    tensor_product,
    von_neumann_entropy,
)
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
    "BOUND_RELATIVE_TOL",
    "PATH_LABELS",
    "SUITE_NAMES",
    "WEAK_REGIME_LIMIT",
    "BoundReport",
    "ContractError",
    "DegenerateDenominatorError",
    "DensityOperator",
    "ExtremePair",
    "GaussianPointer",
    "GridSpec",
    "HardyScenario",
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
    "build_hardy",
    "check_weak_bounds",
    "closed_form_shifts",
    "exact_shifts",
    "extreme_shifts_projector",
    "grid_shifts",
    "hardy_probabilities",
    "info_curve",
    "information_gain",
    "jozsa_shifts",
    "k_value",
    "load_scenario",
    "optimize_pps",
    "parse_scenario",
    "probability_curve",
    "reduced_device_states",
    "run_suites",
    "schwarz_gap",
    "second_order_shifts",
    "setup_to_json",
    "spectral_decompose",
    "tensor_product",
    "von_neumann_entropy",
    "weak_moments",
    "__version__",
]
