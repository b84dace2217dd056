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

import numpy as np

from .errors import InternalConsistencyError, ValidationError
from .exactengine import (
    GaussianPointer,
    _coupling_grid,
    _overlap_kernels,
    _pointer_sums,
    _selection_amplitudes,
)
from .qcore import HermitianObservable, ProjectionOperator, StateVector, tensor_product

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
    p_no = p_o.complement()
    ops = {
        "OO": tensor_product(p_o, p_o),
        "ONO": tensor_product(p_o, p_no),
        "NOO": tensor_product(p_no, p_o),
        "NONO": tensor_product(p_no, p_no),
    }
    total = sum(p.matrix for p in ops.values())
    assert float(np.max(np.abs(total - np.eye(4)))) == 0.0
    return HardyScenario(pre, post, ops)


def closed_form_shifts(g: float, delta: float) -> dict[str, float]:
    """Exact position shifts of the four which-path pointers, closed form.

    With G = exp(-g^2 / (8 delta^2)):

        OO:   0           (the annihilation channel empties this branch)
        ONO:  g            NOO: g      (single-branch selections)
        NONO: g (1 - 2 G) / (5 - 4 G)
    """
    if delta <= 0.0:
        raise ValidationError(f"delta must be positive, got {delta!r}")
    overlap = float(np.exp(-(g**2) / (8.0 * delta**2)))
    return {
        "OO": 0.0,
        "ONO": g,
        "NOO": g,
        "NONO": g * (1.0 - 2.0 * overlap) / (5.0 - 4.0 * overlap),
    }


def infer_probability(delta_q: float, g: float) -> float:
    """Occupation probability read off the pointer: delta_q / g.

    Interprets the position record of a weak which-path coupling; can be
    negative or exceed the eigenvalue range for postselected ensembles.

    Raises
    ------
    ValidationError
        If g <= 0 (the ratio is undefined without a kick).
    """
    if not np.isfinite(g) or g <= 0.0:
        raise ValidationError(f"inferred probability requires g > 0, got {g!r}")
    return delta_q / g


@lru_cache(maxsize=1)
def _cached_amplitudes() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per arm pair: the observable's eigenvalues and the selection amplitudes."""
    sc = build_hardy()
    rho = sc.preselection.density()
    pieces = {}
    for label, proj in sc.operators.items():
        observable = HermitianObservable.from_projector(proj)
        eigs = np.array(observable.eigenvalues)
        c = _selection_amplitudes(rho, sc.postselection, observable)
        eigs.flags.writeable = c.flags.writeable = False  # shared by every caller
        pieces[label] = (eigs, c)
    return pieces


def _probability_points(gs: np.ndarray, delta: float) -> list[ProbabilityPoint]:
    """The four inferred probabilities at every coupling in gs (all > 0).

    Each arm pair's shifts come from one engine call over all couplings, and
    every point is checked against :func:`closed_form_shifts`.
    """
    GaussianPointer(delta)  # validates delta
    ratio = gs / delta
    probs = {}
    for label, (eigs, c) in _cached_amplitudes().items():
        n_val, q_num, _, _ = _pointer_sums(c, eigs, _overlap_kernels(eigs, ratio))
        probs[label] = q_num / n_val
    for i, g in enumerate(gs):
        expected = closed_form_shifts(float(g), delta)
        floor = 1e-14 * max(g, delta)
        for label in PATH_LABELS:
            delta_q = g * probs[label][i]
            # written so that a NaN shift fails the check too
            if not abs(delta_q - expected[label]) <= 1e-12 * abs(expected[label]) + floor:
                raise InternalConsistencyError(
                    f"engine and closed-form shifts disagree for {label} at g = {float(g)!r}: "
                    f"{float(delta_q)!r} vs {expected[label]!r}"
                )
    return [
        ProbabilityPoint(float(g), *(float(probs[label][i]) for label in PATH_LABELS))
        for i, g in enumerate(gs)
    ]


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
    if not np.isfinite(g) or g <= 0.0:
        raise ValidationError(f"coupling g must be positive, got {g!r}")
    return _probability_points(np.array([float(g)]), delta)[0]


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
    curve = _probability_points(_coupling_grid(g_min, g_max, points, spacing), delta)
    for prev, here in zip(curve, curve[1:]):
        if here.prob_nono < prev.prob_nono:
            raise InternalConsistencyError(
                f"NO-NO probability decreased between g = {prev.g!r} and {here.g!r}"
            )
    return curve
