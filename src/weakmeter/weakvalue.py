"""Weak values, conditional weak moments, and the low-order shift formulas.

For preselection rho_s, postselection projector Pi_f and observable A, the
(generally complex) weak value is

    A_w = tr(Pi_f A rho_s) / tr(Pi_f rho_s) = a + i b.

To first order in the coupling the Gaussian pointer of width Delta moves by
delta_q = g a and delta_p = 2 g b Var_p; the second-order correction divides
both by D = 1 + g^2 Var_p (two_sided - square_real), where the two extra
moments are defined on :class:`WeakMoments`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominatorError, OrthogonalSelectionError, ValidationError
from .exactengine import ORTHOGONALITY_FLOOR, GaussianPointer, _selection_factors
from .qcore import DensityOperator, HermitianObservable, ProjectionOperator


@dataclass(frozen=True)
class WeakValue:
    """A complex weak value split into real and imaginary parts."""

    real_part: float
    imag_part: float

    def __post_init__(self) -> None:
        for name in ("real_part", "imag_part"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValidationError(f"weak value: {name} is not finite")
            object.__setattr__(self, name, v)

    @classmethod
    def from_complex(cls, z: complex) -> "WeakValue":
        return cls(z.real, z.imag)

    @property
    def as_complex(self) -> complex:
        return complex(self.real_part, self.imag_part)

    @property
    def magnitude(self) -> float:
        return abs(self.as_complex)


@dataclass(frozen=True)
class WeakMoments:
    """The conditional moments that control shifts through second order.

    Attributes
    ----------
    weak_value : WeakValue
        A_w = tr(Pi_f A rho_s) / tr(Pi_f rho_s).
    two_sided : float
        tr(Pi_f A rho_s A) / tr(Pi_f rho_s) — A applied on both sides of the
        state; real and >= |A_w|^2 by the Schwarz inequality.
    square_real : float
        Re[ tr(Pi_f A^2 rho_s) / tr(Pi_f rho_s) ], the real part of the weak
        value of A^2.
    postselect_prob : float
        tr(Pi_f rho_s), in (0, 1].
    """

    weak_value: WeakValue
    two_sided: float
    square_real: float
    postselect_prob: float

    def __post_init__(self) -> None:
        for name in ("two_sided", "square_real", "postselect_prob"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValidationError(f"weak moments: {name} is not finite")
            object.__setattr__(self, name, v)
        if not 0.0 < self.postselect_prob <= 1.0 + 1e-12:
            raise ValidationError(
                f"weak moments: postselect_prob {self.postselect_prob!r} outside (0, 1]"
            )
        # Tolerance scales with |A_w|^2: near-orthogonal selections amplify both
        # traces, and their rounding error grows with them.
        floor = 1e-10 * max(1.0, self.weak_value.magnitude**2)
        if self.two_sided < self.weak_value.magnitude**2 - floor:
            raise ValidationError(
                "weak moments: two_sided moment "
                f"{self.two_sided!r} below |A_w|^2 = {self.weak_value.magnitude ** 2!r} "
                "(Schwarz inequality violated)"
            )


def weak_moments(
    rho_s: DensityOperator, pi_f: ProjectionOperator, observable: HermitianObservable
) -> WeakMoments:
    """Compute the weak value and companion moments for one selection.

    Raises
    ------
    OrthogonalSelectionError
        If tr(Pi_f rho_s) <= 1e-14.
    ValidationError
        On dimension mismatch.
    """
    d = observable.dimension
    if rho_s.dimension != d or pi_f.dimension != d:
        raise ValidationError(
            f"dimension mismatch: observable/state/projector are "
            f"{d}/{rho_s.dimension}/{pi_f.dimension}"
        )
    pi = pi_f.matrix
    rho = rho_s.matrix
    a_mat = observable.matrix

    n0 = complex(np.trace(pi @ rho))
    assert abs(n0.imag) <= 1e-12
    if n0.real <= ORTHOGONALITY_FLOOR:
        raise OrthogonalSelectionError(
            f"selection probability {n0.real:.3e} at or below 1e-14; weak value undefined"
        )
    prob = n0.real

    a_rho = a_mat @ rho
    first = complex(np.trace(pi @ a_rho)) / prob
    two_sided = complex(np.trace(pi @ a_rho @ a_mat)) / prob
    square = complex(np.trace(pi @ a_mat @ a_rho)) / prob
    # tr(Pi A rho A) is a trace against the PSD operator A rho A: real.
    assert abs(two_sided.imag) <= 1e-10 * max(1.0, abs(two_sided.real))
    return WeakMoments(
        weak_value=WeakValue.from_complex(first),
        two_sided=two_sided.real,
        square_real=square.real,
        postselect_prob=min(prob, 1.0),
    )


def jozsa_shifts(weak_value: WeakValue, g: float, pointer: GaussianPointer) -> tuple[float, float]:
    """First-order pointer shifts from a (complex) weak value.

    delta_q = g a,
    delta_p = 2 g b Var_p.

    The general position shift carries a further g b term weighted by the
    pointer's <{q, p}>/2 correlation, which vanishes for the zero-centered
    Gaussian pointer.
    """
    if not np.isfinite(g) or g < 0.0:
        raise ValidationError(f"coupling g must be finite and >= 0, got {g!r}")
    a, b = weak_value.real_part, weak_value.imag_part
    return g * a, 2.0 * g * b * pointer.var_p


def second_order_shifts(
    moments: WeakMoments, g: float, pointer: GaussianPointer
) -> tuple[float, float]:
    """Second-order pointer shifts: the first-order ones divided by

        D = 1 + g^2 Var_p (two_sided - square_real).

    Raises
    ------
    DegenerateDenominatorError
        If |D| <= 1e-12.
    """
    if not np.isfinite(g) or g < 0.0:
        raise ValidationError(f"coupling g must be finite and >= 0, got {g!r}")
    denom = 1.0 + g**2 * pointer.var_p * (moments.two_sided - moments.square_real)
    if abs(denom) <= 1e-12:
        raise DegenerateDenominatorError(
            f"second-order denominator D = {denom!r} vanishes for this setup"
        )
    a, b = moments.weak_value.real_part, moments.weak_value.imag_part
    return g * a / denom, 2.0 * g * b * pointer.var_p / denom


def schwarz_gap(
    rho_s: DensityOperator, pi_f: ProjectionOperator, observable: HermitianObservable
) -> float:
    """The nonnegative gap two_sided - |A_w|^2.

    Zero (to rounding) exactly when the selection is rank one on both sides:
    pure rho_s with a rank-one Pi_f.

    Evaluated through the Lagrange identity rather than by subtracting the two
    moments: with u_(jk) = sqrt(w_k) <f_j|A|k> and v_(jk) = sqrt(w_k) <f_j|k>
    over the ensemble of rho_s and a range basis {f_j} of Pi_f,

        gap = (1/2) sum |u_a v_b - u_b v_a|^2 / (sum |v|^2)^2.

    The sum of squares keeps the result nonnegative in floating point even when
    a near-orthogonal selection amplifies both moments by orders of magnitude,
    where the plain difference would drown in rounding error.
    """
    d = observable.dimension
    if rho_s.dimension != d or pi_f.dimension != d:
        raise ValidationError(
            f"dimension mismatch: observable/state/projector are "
            f"{d}/{rho_s.dimension}/{pi_f.dimension}"
        )
    bras, kets = _selection_factors(rho_s, pi_f)
    v = (bras @ kets).ravel()
    u = (bras @ observable.matrix @ kets).ravel()

    prob = float(np.vdot(v, v).real)
    if prob <= ORTHOGONALITY_FLOOR:
        raise OrthogonalSelectionError(
            f"selection probability {prob:.3e} at or below 1e-14; weak value undefined"
        )
    cross = np.outer(u, v)
    cross -= cross.T
    return 0.5 * float(np.sum(np.abs(cross) ** 2)) / prob**2
