"""Fuzzing the command line: every input ends in exit 0, 2 or 3, never a traceback.

Couplings and pointer widths are drawn log-uniform over [1e-300, 1e300],
together with 0, NaN, +-inf and negative values.  Warnings are raised as
errors, because outside pytest they would print to stderr.  Random valid
selections near orthogonality must not exit 2, which is kept for bad input.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from weakmeter.cli import main
from weakmeter.sampling import random_hermitian, random_state
from weakmeter.scenario import matrix_to_json

# mostly positive, so that most draws get past input validation
_KINDS = ["positive"] * 7 + ["negative", "zero", "nan", "inf"]


def _scale(kind, n):
    # log-uniform: an integer drawn over a wide range spreads the exponent
    # evenly, where a float in [-300, 300] would crowd around 10**0
    x = 10.0 ** (-300.0 + 6e-7 * n)
    return {"positive": x, "negative": -x, "zero": 0.0, "nan": math.nan, "inf": math.inf}[kind]


SCALES = st.builds(_scale, st.sampled_from(_KINDS), st.integers(0, 10**9))
RANGES = st.tuples(SCALES, SCALES).map(sorted)
POINTS = st.integers(-1, 16)
FUZZ = settings(derandomize=True, database=None, max_examples=120, deadline=None)


def _exits_cleanly(argv, codes=(0, 2, 3)):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in codes, (argv, code, err.getvalue())
    stderr = err.getvalue()
    assert stderr == "" or stderr.startswith("error:"), (argv, stderr)


def _flag(name, value):
    # "--g=-1e5": a negative value in the next argument would read as a flag
    return f"--{name}={value!r}"


@FUZZ
@given(
    name=st.sampled_from(["anomalous_qubit.json", "hardy_nono.json"]),
    g=SCALES,
    delta=SCALES,
)
def test_run_with_overridden_coupling_and_width(name, g, delta):
    data = json.loads(resources.files("weakmeter").joinpath("scenarios", name).read_text())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(json.dumps({**data, "g": g, "delta": delta}))
        _exits_cleanly(["run", str(path)])


def _pairs(v):
    return [[float(z.real), float(z.imag)] for z in v]


@FUZZ
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 4),
    prob=st.integers(0, 10**9).map(lambda n: 10.0 ** (-13.0 + 9e-9 * n)),
    g=st.integers(0, 10**9).map(lambda n: 10.0 ** (-6.0 + 6e-9 * n)),
)
def test_run_on_valid_near_orthogonal_selections(seed, dim, prob, g):
    """A pure psi and a postselection tilted by sqrt(prob) toward it, prob
    log-uniform in [1e-13, 1e-4] and g in [1e-6, 1] Delta: valid input, so
    never exit 2."""
    rng = np.random.default_rng(seed)
    obs = random_hermitian(rng, dim)
    psi = random_state(rng, dim).amplitudes
    w = random_state(rng, dim).amplitudes
    w = w - np.vdot(psi, w) * psi
    post = np.sqrt(1.0 - prob) * w / np.linalg.norm(w) + np.sqrt(prob) * psi
    data = {"dimension": dim, "observable": matrix_to_json(obs.matrix), "preselect": _pairs(psi),
            "postselect": _pairs(post), "g": g, "delta": 1.0}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tilted.json"
        path.write_text(json.dumps(data))
        _exits_cleanly(["run", str(path)], codes=(0, 3))


@FUZZ
@given(
    g_range=RANGES, delta=SCALES, points=POINTS, spacing=st.sampled_from(["lin", "log"]),
)
def test_hardy_sweep(g_range, delta, points, spacing):
    g_min, g_max = g_range
    _exits_cleanly([
        "hardy-sweep", _flag("g-min", g_min), _flag("g-max", g_max), _flag("delta", delta),
        f"--points={points}", f"--spacing={spacing}",
    ])


@FUZZ
@given(g_range=RANGES, delta=SCALES, points=POINTS)
def test_info_sweep(g_range, delta, points):
    g_min, g_max = g_range
    _exits_cleanly([
        "info-sweep", _flag("g-min", g_min), _flag("g-max", g_max), _flag("delta", delta),
        f"--points={points}",
    ])


@FUZZ
@given(
    g=SCALES, delta=SCALES, dim=st.integers(-1, 9),
    objective=st.sampled_from(["max", "min"]),
    observable=st.sampled_from(["which-path", "identity"]),
)
def test_bounds_optimize(g, delta, dim, objective, observable):
    _exits_cleanly([
        "bounds-optimize", _flag("g", g), _flag("delta", delta), f"--dim={dim}",
        f"--objective={objective}", f"--observable={observable}", "--restarts=1",
    ])
