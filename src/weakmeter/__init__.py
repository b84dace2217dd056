"""Pointer statistics for postselected weak measurements.

A system observable A is coupled impulsively to the position q of a
Gaussian pointer through H = g delta(t - t0) A (x) p, with hbar = 1.  The
package computes the exact postselected pointer shifts in q and p at any
coupling strength, the first- and second-order weak-value approximations,
coupling-regime bounds on the shift magnitudes together with an optimizer
over pre/postselections, the which-path probability curves of the
three-box/pair-of-particles interference paradox, and the information the
device itself acquires about the system.

``import weakmeter`` loads only the error classes.  Every other public name
is bound here when the submodule that defines it loads, and the first use
of a name whose submodule has not loaded yet imports it (PEP 562), so a
process compiles and runs only the modules it calls.
"""

import sys
import types
from importlib import import_module

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

__version__ = "0.1.0"

# The suites of `weakmeter verify`, here so that the CLI can list them
# without importing the verify module.
SUITE_NAMES = ("schwarz", "bounds", "oracle", "hardy", "info")

# The public names each submodule defines.
_EXPORTS = {
    "bounds": ("BoundReport", "ExtremePair", "check_weak_bounds", "optimize_pps"),
    "exactengine": (
        "GaussianPointer",
        "GridSpec",
        "MeasurementOutcome",
        "MeasurementSetup",
        "exact_shifts",
        "grid_shifts",
    ),
    "hardy": ("ProbabilityPoint", "probability_curve"),
    "infogain": ("InfoGainResult", "info_curve"),
    "qcore": ("DensityOperator", "HermitianObservable", "ProjectionOperator", "StateVector"),
    "scenario": ("load_scenario", "parse_scenario", "setup_to_json"),
    "verify": ("SuiteResult", "run_suites"),
    "weakvalue": (
        "WeakMoments",
        "WeakValue",
        "jozsa_shifts",
        "schwarz_gap",
        "second_order_shifts",
        "weak_moments",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "sampling"}


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # The import system sets each submodule on its package once the
        # submodule has run.  Binding its names then, and not at their first
        # use, keeps them the objects it defined, as an eager import would,
        # even if a patch of the submodule (a tracer's, a test's) is in
        # place when a name is first read.
        super().__setattr__(name, value)
        if name in _EXPORTS and isinstance(value, types.ModuleType):
            for attr in _EXPORTS[name]:
                super().__setattr__(attr, getattr(value, attr))


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    if name not in _HOME and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import_module(f"{__name__}.{_HOME.get(name, name)}")
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))


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
