"""Scenario-file parsing and serialization.

A scenario is a JSON object describing one measurement setup:

    {
      "dimension": 4,
      "observable": [[[re, im], ...], ...],        d x d matrix
      "preselect":  [[re, im], ...]                state amplitudes,
                    or a d x d density matrix,
      "postselect": [[re, im], ...]                state amplitudes,
                    or a d x d projector matrix,
      "g": 1.0,
      "delta": 1.0,
      "pointer_grid": {"half_width": 24.0, "num_points": 4096}   (optional)
    }

Complex entries are always [re, im] pairs.  Decimal literals are parsed to
the nearest binary double (standard JSON semantics).  Errors carry the path
of the offending field, e.g. ``observable[1][2]``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .exactengine import GaussianPointer, GridSpec, MeasurementSetup
from .qcore import DensityOperator, HermitianObservable, ProjectionOperator, StateVector

_TOP_FIELDS = {"dimension", "observable", "preselect", "postselect", "g", "delta", "pointer_grid"}

# Integer literals of more digits are refused as they are read.  A double
# holds at most 309 integer digits, and no setting of
# sys.set_int_max_str_digits stops int() short of 640.
_MAX_INT_DIGITS = 640


def _parse_int(literal: str) -> int:
    """json's hook for integer literals: past _MAX_INT_DIGITS digits, a ValidationError."""
    digits = len(literal) - literal.startswith("-")
    if digits > _MAX_INT_DIGITS:
        raise ValidationError(f"scenario: an integer literal of {digits} digits exceeds {_MAX_INT_DIGITS}")
    return int(literal)


def _as_number(node: object, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {type(node).__name__}")
    try:
        return float(node)
    except OverflowError:  # an int past the double range
        raise ValidationError(f"{path}: integer of {node.bit_length()} bits lies beyond the double range") from None


def _as_int(node: object, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ValidationError(f"{path}: expected an integer, got {type(node).__name__}")
    return node


def _as_complex(node: object, path: str) -> complex:
    if not isinstance(node, list) or len(node) != 2:
        raise ValidationError(f"{path}: expected a [re, im] pair")
    return complex(_as_number(node[0], f"{path}[0]"), _as_number(node[1], f"{path}[1]"))


def _as_vector(node: object, dim: int, path: str) -> np.ndarray:
    assert isinstance(node, list)
    if len(node) != dim:
        raise ValidationError(f"{path}: expected length {dim}, got {len(node)}")
    return np.array([_as_complex(e, f"{path}[{i}]") for i, e in enumerate(node)])


def _as_matrix(node: object, dim: int, path: str) -> np.ndarray:
    if not isinstance(node, list):
        raise ValidationError(f"{path}: expected a matrix (list of rows)")
    if len(node) != dim:
        raise ValidationError(f"{path}: expected {dim} rows, got {len(node)}")
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list):
            raise ValidationError(f"{path}[{i}]: expected a row (list of [re, im] pairs)")
        rows.append(_as_vector(row, dim, f"{path}[{i}]"))
    return np.stack(rows)


@contextmanager
def _field(key: str):
    """Name `key` at the head of any ValidationError raised inside the block."""
    try:
        yield
    except ValidationError as exc:
        msg = str(exc)
        raise ValidationError(msg if msg.startswith(key) else f"{key}: {msg}") from None


def _looks_like_vector(node: object) -> bool:
    # vector element: [re, im]; matrix row: [[re, im], ...]
    return (
        isinstance(node, list)
        and len(node) > 0
        and isinstance(node[0], list)
        and len(node[0]) > 0
        and not isinstance(node[0][0], list)
    )


def parse_scenario(data: object) -> tuple[MeasurementSetup, GridSpec | None]:
    """Build a MeasurementSetup (and optional GridSpec) from decoded JSON.

    Raises ValidationError naming the offending field on any structural or
    physical-validity problem.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"scenario: expected a JSON object, got {type(data).__name__}")
    unknown = set(data) - _TOP_FIELDS
    if unknown:
        raise ValidationError(f"scenario: unknown field(s) {sorted(unknown)!r}")
    for key in ("dimension", "observable", "preselect", "postselect", "g", "delta"):
        if key not in data:
            raise ValidationError(f"{key}: missing required field")

    dim = _as_int(data["dimension"], "dimension")
    if dim < 2:
        raise ValidationError(f"dimension: must be >= 2, got {dim}")

    def build(key: str, as_state, as_operator):
        node = data[key]
        with _field(key):
            if _looks_like_vector(node):
                return as_state(StateVector(_as_vector(node, dim, key)))
            return as_operator(_as_matrix(node, dim, key))

    with _field("observable"):
        observable = HermitianObservable(_as_matrix(data["observable"], dim, "observable"))
    preselect = build("preselect", lambda s: s.density(), DensityOperator)
    postselect = build("postselect", lambda s: s.projector(), ProjectionOperator)

    g = _as_number(data["g"], "g")
    if g < 0.0:
        raise ValidationError(f"g: must be >= 0, got {g!r}")
    delta = _as_number(data["delta"], "delta")
    if delta <= 0.0:
        raise ValidationError(f"delta: must be > 0, got {delta!r}")

    with _field("scenario"):
        setup = MeasurementSetup(observable, preselect, postselect, g, GaussianPointer(delta))

    grid = None
    if "pointer_grid" in data:
        node = data["pointer_grid"]
        if not isinstance(node, dict):
            raise ValidationError("pointer_grid: expected an object")
        extra = set(node) - {"half_width", "num_points"}
        if extra:
            raise ValidationError(f"pointer_grid: unknown field(s) {sorted(extra)!r}")
        if "half_width" not in node or "num_points" not in node:
            raise ValidationError("pointer_grid: needs half_width and num_points")
        with _field("pointer_grid"):
            grid = GridSpec(
                _as_number(node["half_width"], "pointer_grid.half_width"),
                _as_int(node["num_points"], "pointer_grid.num_points"),
            )
    return setup, grid


def load_scenario(path: str | Path) -> tuple[MeasurementSetup, GridSpec | None]:
    """Read and parse a scenario file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"scenario: cannot read {p}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"scenario: {p} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        data = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario: {p} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError(f"scenario: {p} nests too deeply to parse") from None
    return parse_scenario(data)


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def matrix_to_json(m: np.ndarray) -> list[list[list[float]]]:
    return [[_pair(complex(e)) for e in row] for row in np.asarray(m, dtype=complex)]


def setup_to_json(setup: MeasurementSetup, grid: GridSpec | None = None) -> dict:
    """Serialize a setup back into the scenario schema (matrix forms)."""
    out = {
        "dimension": setup.observable.dimension,
        "observable": matrix_to_json(setup.observable.matrix),
        "preselect": matrix_to_json(setup.preselection.matrix),
        "postselect": matrix_to_json(setup.postselection.matrix),
        "g": setup.g,
        "delta": setup.pointer.delta,
    }
    if grid is not None:
        out["pointer_grid"] = {"half_width": grid.half_width, "num_points": grid.num_points}
    return out
