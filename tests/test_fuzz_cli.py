"""Fuzzing the command line: every input ends in exit 0, 2 or 3, never a traceback.

Couplings and pointer widths are drawn log-uniform over [1e-300, 1e300],
together with 0, NaN, +-inf and negative values.  Warnings are raised as
errors, because outside pytest they would print to stderr.  Random valid
selections near orthogonality must not exit 2, which is kept for bad input,
and invalid matrices scaled up to 1.7e308 must exit 2.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
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
    assert stderr == "" or (stderr.startswith("error:") and stderr.count("\n") == 1), (argv, stderr)


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


@FUZZ
@given(
    name=st.sampled_from(["anomalous_qubit.json", "hardy_nono.json", "random"]),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(0, 308),
    mantissa=st.integers(0, 10**9).map(lambda n: 1.0 + 0.7e-9 * n),
)
def test_run_with_a_scaled_observable(name, seed, exponent, mantissa):
    """The bundled observables, or a random d = 2..4 one, scaled by up to
    1.7e308: where the moments, the symmetrized matrix or its levels leave
    the double range, the input is refused with exit 2."""
    if name == "random":
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        obs = random_hermitian(rng, dim).matrix
        obs = obs / np.max(np.abs(obs))  # the largest entry scales to `scale`
        data = {"dimension": dim, "preselect": _pairs(random_state(rng, dim).amplitudes),
                "postselect": _pairs(random_state(rng, dim).amplitudes), "g": 0.5, "delta": 1.0}
    else:
        data = json.loads(resources.files("weakmeter").joinpath("scenarios", name).read_text())
        obs = np.array(data["observable"]) @ [1.0, 1.0j]
    scale = mantissa * 10.0**exponent
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scaled.json"
        path.write_text(json.dumps({**data, "observable": matrix_to_json(obs * scale)}))
        _exits_cleanly(["run", str(path)])


@FUZZ
@given(exponent=st.integers(0, 40), offset=st.sampled_from([-1, 0, 0, 0, 1]))
def test_run_with_a_drawn_grid_size(exponent, offset):
    """num_points around 2**k for k up to 40: past 2**17 the grid is refused
    before anything is allocated."""
    data = json.loads(resources.files("weakmeter").joinpath("scenarios", "hardy_nono.json").read_text())
    num_points = 2**exponent + offset
    data["pointer_grid"]["num_points"] = num_points
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.json"
        path.write_text(json.dumps(data))
        valid = offset == 0 and 10 <= exponent <= 17
        _exits_cleanly(["run", str(path)], codes=(0,) if valid else (2,))


def _pairs(v):
    return [[float(z.real), float(z.imag)] for z in v]


# (field, Hermitian?): a non-Hermitian matrix fits no field; a traceless
# nonzero Hermitian one is neither a state nor a projector
_INVALID_KINDS = [("observable", False), ("preselect", False), ("preselect", True),
                  ("postselect", False), ("postselect", True)]


def _invalid_matrix(kind, seed, exponent, mantissa):
    """(field, matrix) for a random d = 2..4 matrix of `kind` whose largest
    entry has modulus mantissa * 10**exponent."""
    field, hermitian = kind
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    if hermitian:
        m = m + m.conj().T
        m -= np.trace(m).real / dim * np.eye(dim)
    return field, matrix_to_json(m / np.max(np.abs(m)) * (mantissa * 10.0**exponent))


_INVALID_MATRICES = st.builds(
    _invalid_matrix,
    st.sampled_from(_INVALID_KINDS),
    st.integers(0, 2**32 - 1),
    st.integers(0, 308),
    st.integers(0, 10**9).map(lambda n: 1.0 + 0.7e-9 * n),
)

# m @ m, m - m^H and the trace of these overflow
_HUGE_NON_PROJECTOR = [[[0.0, 0.0], [1e200, 1e200]], [[1e200, -1e200], [0.0, 0.0]]]
_ASYMMETRIC = [[[0.0, 0.0], [1e308, 0.0]], [[-1e308, 0.0], [0.0, 0.0]]]
_HUGE_TRACELESS = matrix_to_json(np.diag([1.7e308, 1.7e308, -1.7e308, -1.7e308]))


@FUZZ
@example(case=("postselect", _HUGE_NON_PROJECTOR))
@example(case=("observable", _ASYMMETRIC))
@example(case=("preselect", _ASYMMETRIC))
@example(case=("postselect", _ASYMMETRIC))
@example(case=("preselect", _HUGE_TRACELESS))
@given(case=_INVALID_MATRICES)
def test_run_with_an_invalid_scaled_matrix(case):
    """A matrix that fits none of the fields it is put in, scaled by up to
    1.7e308, into an otherwise valid scenario: bad input, so exit 2."""
    field, matrix = case
    dim = len(matrix)
    rng = np.random.default_rng(dim)
    data = {"dimension": dim, "observable": matrix_to_json(random_hermitian(rng, dim).matrix),
            "preselect": _pairs(random_state(rng, dim).amplitudes),
            "postselect": _pairs(random_state(rng, dim).amplitudes), "g": 0.5, "delta": 1.0}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "invalid.json"
        path.write_text(json.dumps({**data, field: matrix}))
        _exits_cleanly(["run", str(path)], codes=(2,))


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
        f"--objective={objective}", f"--observable={observable}",
    ])


# Tokens of a scenario's text: a number, a key with its colon, a bracket.
_NUMBER = re.compile(r"-?(?:0|[1-9]\d*)(?:\.\d+)?(?:[eE][+-]?\d+)?")
_KEY = re.compile(r'"[a-z_]+"\s*:')
_BRACKET = re.compile(r"[\[\]{}]")
# What a number is replaced by: integers past the double range, inside it but
# past its squares, and past int()'s 4300 digits; the literals Python's json
# reads beyond JSON; the extremes of the double range; and values of the
# wrong type.
_REPLACEMENTS = ["1" + "0" * 400, "-1" + "0" * 300, "9" * 5001, "NaN", "-Infinity", "1e400",
                 "5e-324", "true", "null", '"x"']
_MUTATIONS = ["replace", "replace", "wrap", "drop-bracket", "duplicate-bracket", "duplicate-key"]


def _mutate(text, mutation, index, replacement):
    """`text` with one token-level `mutation` at the index-th token of its kind (modulo their count)."""
    pattern = {"replace": _NUMBER, "wrap": _NUMBER, "duplicate-key": _KEY}.get(mutation, _BRACKET)
    token = list(pattern.finditer(text))[index % len(pattern.findall(text))]
    start, end = token.span()
    new = {
        "replace": replacement,
        "wrap": f"[{token[0]}]",
        "drop-bracket": "",
        "duplicate-bracket": token[0] * 2,
        # the copy comes first, so the original value is the one read
        "duplicate-key": f"{token[0]} {replacement}, {token[0]}",
    }[mutation]
    return text[:start] + new + text[end:]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    name=st.sampled_from(["anomalous_qubit.json", "hardy_nono.json"]),
    mutation=st.sampled_from(_MUTATIONS),
    index=st.integers(0, 10**6),
    replacement=st.sampled_from(_REPLACEMENTS),
)
def test_run_on_a_mutated_scenario_text(name, mutation, index, replacement):
    """One token-level mutation of a bundled scenario's text: a number
    replaced or wrapped in a list, a bracket dropped or doubled, or a key
    given twice.  Every mutant exits 0, 2 or 3 with at most one error line."""
    text = resources.files("weakmeter").joinpath("scenarios", name).read_text()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(_mutate(text, mutation, index, replacement))
        _exits_cleanly(["run", str(path)])
