"""Which-path weak measurements in the interaction-free double interferometer.

Two particles (electron first slot, positron second; single-particle basis
ordered (O, NO) for "overlapping" / "non-overlapping" arm) are preselected
in

    |psi_i> = (|O,NO> + |NO,O> + |NO,NO>) / sqrt(3)

— the |O,O> component is removed by the annihilation channel — and
postselected on both dark ports,

    |psi_f> = (|O> - |NO>)(x)(|O> - |NO>) / 2.

Weakly measuring the four arm-pair projectors and reading the inferred
occupation probability delta_q / g off the pointer reproduces the paradox:
the two single-overlap pairs read 1, the double-overlap pair reads 0, and
the double-non-overlap pair reads -1 at weak coupling, rising monotonically
to +1/5 at strong coupling.  Every point is computed twice — through the
exact engine and through the closed forms below — and the two must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import InternalConsistencyError, ValidationError
from .exactengine import (
    _check_coupling,
    _coupling_grid,
    _nondecreasing,
    _one_minus_overlap,
    _pointer_sums,
    _ratio,
    _selection_amplitudes,
)
from .qcore import HermitianObservable, ProjectionOperator, StateVector

#: Arm-pair labels, electron arm first: O = overlapping, NO = non-overlapping.
PATH_LABELS = ("OO", "ONO", "NOO", "NONO")


@dataclass(frozen=True)
class HardyScenario:
    """The fixed pre/postselection and the four which-path projectors."""

    preselection: StateVector
    postselection: ProjectionOperator
    operators: dict[str, ProjectionOperator]


@dataclass(frozen=True)
class ProbabilityPoint:
    """Inferred arm-pair occupation probabilities at one coupling strength."""

    g: float
    prob_oo: float
    prob_ono: float
    prob_noo: float
    prob_nono: float


def build_hardy() -> HardyScenario:
    """Construct the scenario in the 4-dimensional two-particle space.

    Basis order: index 0 = |O,O>, 1 = |O,NO>, 2 = |NO,O>, 3 = |NO,NO>
    (electron slot most significant).
    """
    pre = StateVector(np.array([0.0, 1.0, 1.0, 1.0], dtype=complex) / np.sqrt(3.0))
    post = StateVector(np.array([1.0, -1.0, -1.0, 1.0], dtype=complex) / 2.0).projector()
    p_o = ProjectionOperator(np.diag([1.0, 0.0]).astype(complex))
    arm = {"O": p_o.matrix, "NO": p_o.complement().matrix}
    # keys in PATH_LABELS order
    ops = {e + p: ProjectionOperator(np.kron(arm[e], arm[p])) for e, p in product(arm, repeat=2)}
    total = sum(p.matrix for p in ops.values())
    assert float(np.max(np.abs(total - np.eye(4)))) == 0.0
    return HardyScenario(pre, post, ops)


def closed_form_shifts(g, delta: float) -> dict:
    """Exact position shifts of the four which-path pointers, closed form.

    With G = exp(-g^2 / (8 delta^2)) and h = 1 - G:

        OO:   0           (the annihilation channel empties this branch)
        ONO:  g            NOO: g      (single-branch selections)
        NONO: g (1 - 2 G) / (5 - 4 G) = g (2 h - 1) / (1 + 4 h)

    `g` may be a scalar or an array of couplings; each value has its shape.
    """
    h = _one_minus_overlap(_ratio(g, delta))
    return {"OO": 0.0 * g, "ONO": g, "NOO": g, "NONO": g * (2.0 * h - 1.0) / (1.0 + 4.0 * h)}


@lru_cache(maxsize=1)
def _cached_terms() -> tuple:
    """The pointer-sum terms of each arm pair's selection, in PATH_LABELS order."""
    sc = build_hardy()
    rho = sc.preselection.density()
    observables = (HermitianObservable.from_projector(sc.operators[label]) for label in PATH_LABELS)
    return tuple(_selection_amplitudes(rho, sc.postselection, obs).terms for obs in observables)


def _probability_rows(gs: np.ndarray, delta: float) -> np.ndarray:
    """The four inferred probabilities at every coupling in gs (all > 0),
    shape (4, len(gs)), rows in PATH_LABELS order.

    Each arm pair's shifts come from one engine contraction over all
    couplings, and every point is checked against :func:`closed_form_shifts`.
    """
    ratio = _ratio(gs, delta)
    probs = np.empty((len(PATH_LABELS), len(gs)))  # rows in PATH_LABELS order
    for row, terms in zip(probs, _cached_terms()):
        n_val, q_num, _, _ = _pointer_sums(terms, ratio)
        row[:] = q_num / n_val
    closed = closed_form_shifts(gs, delta)
    expected = np.array([closed[label] for label in PATH_LABELS])
    shifts = gs * probs
    tol = 1e-12 * np.abs(expected) + 1e-14 * np.maximum(gs, delta)
    # written so that a NaN shift fails the check too
    bad = ~(np.abs(shifts - expected) <= tol)
    if bad.any():
        k, i = np.argwhere(bad)[0]
        raise InternalConsistencyError(
            f"engine and closed-form shifts disagree for {PATH_LABELS[k]} at "
            f"g = {float(gs[i])!r}: {float(shifts[k, i])!r} vs {float(expected[k, i])!r}"
        )
    return probs


def hardy_probabilities(g: float, delta: float = 1.0) -> ProbabilityPoint:
    """All four inferred probabilities at coupling g, engine-vs-closed-form checked.

    Each shift is computed through the exact engine's pointer sums and
    through :func:`closed_form_shifts`; the routes must agree within
    relative 1e-12 (with a 1e-14 * max(g, delta) absolute floor so the
    NO-NO zero crossing near g = delta * sqrt(8 ln 2) stays well-posed).

    Raises
    ------
    InternalConsistencyError
        If the two routes disagree.
    """
    g = _check_coupling(g, positive=True)
    return ProbabilityPoint(g, *_probability_rows(np.array([g]), delta)[:, 0].tolist())


def probability_curve(
    g_min: float,
    g_max: float,
    points: int,
    delta: float = 1.0,
    spacing: str = "log",
) -> list[ProbabilityPoint]:
    """Sweep the inferred probabilities over a coupling range.

    spacing is "log" (default) or "lin".  All couplings go through the
    engine in one batch, with the same per-point closed-form check as
    :func:`hardy_probabilities`.  The NO-NO probability is checked to be
    non-decreasing along the curve; it is strictly increasing everywhere
    the overlap G has not underflowed (g below ~12 delta).
    """
    if not g_min > 0.0:
        raise ValidationError(f"need 0 < g_min < g_max, got {g_min!r}, {g_max!r}")
    gs = _coupling_grid(g_min, g_max, points, spacing)
    probs = _probability_rows(gs, delta)
    _nondecreasing(probs[-1], gs, "NO-NO probability")  # rows in PATH_LABELS order
    return [ProbabilityPoint(*pt) for pt in zip(gs.tolist(), *probs.tolist())]
