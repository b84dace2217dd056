"""The public surface: what `import weakmeter` exports, how its names
resolve, and what the benchmark under perfbench/ reads from the package.

The benchmark's sources are read, not imported, so that this test holds
them to the package without depending on how they run.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def _fresh(code):
    """Stdout of `code` run in a fresh interpreter, where no name has resolved yet."""
    src = str(Path(weakmeter.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_name_resolves_to_its_home_modules_object():
    code = (
        "import importlib, weakmeter\n"
        "for name in weakmeter.__all__:\n"
        "    obj = getattr(weakmeter, name)\n"
        "    home = {'SUITE_NAMES': 'weakmeter.verify', '__version__': 'weakmeter'}.get(name) or obj.__module__\n"
        "    print(name, home, getattr(importlib.import_module(home), name) is obj)\n"
    )
    rows = [line.split() for line in _fresh(code).splitlines()]
    assert [name for name, _, _ in rows] == weakmeter.__all__
    assert all(home.startswith("weakmeter") and same == "True" for _, home, same in rows), rows


def test_star_import_binds_every_name():
    names = _fresh("ns = {}\nexec('from weakmeter import *', ns)\nprint(*sorted(set(ns) - {'__builtins__'}))")
    assert names.split() == sorted(weakmeter.__all__)
    assert len(names.split()) == 39


def test_dir_lists_every_name_before_any_resolves():
    listed = _fresh("import weakmeter\nprint(*dir(weakmeter))").split()
    assert set(weakmeter.__all__) <= set(listed)


def test_a_submodule_is_an_attribute_of_the_package():
    assert _fresh("import weakmeter\nprint(weakmeter.qcore.spectral_decompose.__name__)").strip() == (
        "spectral_decompose"
    )


def test_a_name_is_its_modules_object_even_if_the_module_is_patched_before_first_use():
    """Names bind when their module loads, as an eager import binds them,
    so a patch undone later (a tracer's, a test's) leaves none behind."""
    code = (
        "import weakmeter.exactengine as engine, weakmeter\n"
        "original, engine.exact_shifts = engine.exact_shifts, None\n"
        "print(weakmeter.exact_shifts is original)"
    )
    assert _fresh(code).strip() == "True"


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'nope'"):
        weakmeter.nope  # noqa: B018


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
