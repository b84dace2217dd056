"""The public surface: what `import weakmeter` exports, and what the
benchmark under perfbench/ reads from the package.

The benchmark's sources are read, not imported, so that this test holds
them to the package without depending on how they run.
"""

import ast
import importlib
import re
from pathlib import Path

import weakmeter

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PUBLIC = {
    # what the README quick start, the CLI and the benchmark call
    "DensityOperator", "HermitianObservable", "ProjectionOperator", "StateVector",
    "GaussianPointer", "GridSpec", "MeasurementSetup", "exact_shifts", "grid_shifts",
    "weak_moments", "jozsa_shifts", "second_order_shifts", "schwarz_gap",
    "check_weak_bounds", "optimize_pps", "probability_curve", "info_curve",
    "load_scenario", "parse_scenario", "setup_to_json", "run_suites", "SUITE_NAMES",
    # the error classes
    "WeakMeterError", "ValidationError", "ContractError", "RegimeError",
    "OrthogonalSelectionError", "DegenerateDenominatorError", "UndefinedExtremeError",
    "InternalConsistencyError",
    # the types those calls return
    "MeasurementOutcome", "WeakMoments", "WeakValue", "BoundReport", "ExtremePair",
    "ProbabilityPoint", "InfoGainResult", "SuiteResult",
}


def test_all_is_exactly_the_public_surface():
    assert len(PUBLIC) == 38
    assert len(weakmeter.__all__) == len(set(weakmeter.__all__))
    assert set(weakmeter.__all__) == PUBLIC | {"__version__"}
    for name in weakmeter.__all__:
        assert getattr(weakmeter, name) is not None, name


def _workload_names():
    text = (PERFBENCH / "workloads.py").read_text()
    return set(re.findall(r"\bwm\.([A-Za-z_]\w*)", text))


def _tracer_targets():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_name_the_benchmark_reads_resolves():
    names = _workload_names()
    assert {"check_weak_bounds", "schwarz_gap", "exact_shifts"} <= names  # the regex finds them
    for name in names:
        assert name in weakmeter.__all__, name
    targets = _tracer_targets()
    assert targets["hardy"] and targets["infogain"] and targets["bounds"]
    for module, attrs in targets.items():
        mod = importlib.import_module(f"weakmeter.{module}")
        for attr in attrs:
            assert callable(getattr(mod, attr)), f"weakmeter.{module}.{attr}"
