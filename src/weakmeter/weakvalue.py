"""Weak values, conditional weak moments, and the low-order shift formulas.

For preselection rho_s, postselection projector Pi_f and observable A, the
(generally complex) weak value is

    A_w = tr(Pi_f A rho_s) / tr(Pi_f rho_s) = a + i b.

To first order in the coupling the Gaussian pointer of width Delta moves by
delta_q = g a and delta_p = 2 g b Var_p = u b / Delta, with u = g Delta_p =
g / (2 Delta); the second-order correction divides both by
D = 1 + u^2 (two_sided - square_real), where the two extra moments are
defined on :class:`WeakMoments`.

The moments and the Schwarz gap are read off the column sums that the exact
engine's pointer sums read too (:func:`_selection_sums`), cached with the
selection, so as g -> 0 the exact shifts are :func:`jozsa_shifts` bit for
bit; each call still runs its own dimension, level and floor checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .errors import DegenerateDenominatorError, OrthogonalSelectionError, ValidationError
from .exactengine import ORTHOGONALITY_FLOOR, GaussianPointer, _check_coupling, _selection_amplitudes
from .qcore import DensityOperator, HermitianObservable, ProjectionOperator

# Levels past this square into the second-moment sums beyond the double range.
_MAX_MOMENT_LEVEL = 1e153


@dataclass(frozen=True)
class WeakValue:
    """A complex weak value split into real and imaginary parts."""

    real_part: float
    imag_part: float

    def __post_init__(self) -> None:
        for name in ("real_part", "imag_part"):
            v = float(getattr(self, name))
            if not isfinite(v):
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
            if not isfinite(v):
                raise ValidationError(f"weak moments: {name} is not finite")
            object.__setattr__(self, name, v)
        if not 0.0 < self.postselect_prob <= 1.0 + 1e-12:
            raise ValidationError(
                f"weak moments: postselect_prob {self.postselect_prob!r} outside (0, 1]"
            )
        # Tolerance scales with |A_w|^2: near-orthogonal selections amplify both
        # moments, and their rounding error grows with them.
        floor = 1e-10 * max(1.0, self.weak_value.magnitude**2)
        if self.two_sided < self.weak_value.magnitude**2 - floor:
            raise ValidationError(
                "weak moments: two_sided moment "
                f"{self.two_sided!r} below |A_w|^2 = {self.weak_value.magnitude ** 2!r} "
                "(Schwarz inequality violated)"
            )


def _selection_sums(
    rho_s: DensityOperator, pi_f: ProjectionOperator, observable: HermitianObservable
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], float]:
    """Rows (S0, S1, S2), S_n = sum_k a_k^n c[k, r], of the engine's factored
    amplitudes c (:func:`_selection_amplitudes`), and p = |S0|^2 = tr(Pi_f rho_s):
    read-only, formed once per cached selection and shared by every caller.

    The checks run on every call, the level check before S2 is formed: ValidationError
    on dimension mismatch or a level beyond 1e153, OrthogonalSelectionError if p <= 1e-14.
    """
    d = observable.dimension
    if rho_s.dimension != d or pi_f.dimension != d:
        raise ValidationError(
            f"dimension mismatch: observable/state/projector are "
            f"{d}/{rho_s.dimension}/{pi_f.dimension}"
        )
    eigs = observable.eigenvalues  # ascending
    level = float(max(-eigs[0], eigs[-1]))
    if level > _MAX_MOMENT_LEVEL:
        raise ValidationError(f"weak moments: observable level magnitude {level!r} exceeds 1e153")
    sums, prob = _selection_amplitudes(rho_s, pi_f, observable).sums
    if prob <= ORTHOGONALITY_FLOOR:
        raise OrthogonalSelectionError(
            f"selection probability {prob:.3e} at or below 1e-14; weak value undefined"
        )
    return sums, prob


def weak_moments(
    rho_s: DensityOperator, pi_f: ProjectionOperator, observable: HermitianObservable
) -> WeakMoments:
    """Compute the weak value and companion moments for one selection.

    With the column sums S_n and p = |S0|^2 of :func:`_selection_sums`,

        A_w = S0^* . S1 / p,   two_sided = |S1|^2 / p,   square_real = Re S0^* . S2 / p,

    so two_sided >= |A_w|^2 holds by Cauchy-Schwarz on the computed vectors,
    and for a projector observable S2 = S1 to rounding.

    Raises
    ------
    OrthogonalSelectionError
        If tr(Pi_f rho_s) <= 1e-14.
    ValidationError
        On dimension mismatch, or an observable level beyond 1e153.
    """
    (s0, s1, s2), prob = _selection_sums(rho_s, pi_f, observable)
    return WeakMoments(
        weak_value=WeakValue.from_complex(complex(np.vdot(s0, s1)) / prob),
        two_sided=float(np.vdot(s1, s1).real) / prob,
        square_real=float(np.vdot(s0, s2).real) / prob,
        postselect_prob=min(prob, 1.0),
    )


def _shifts(
    weak_value: WeakValue, g: float, pointer: GaussianPointer, curvature: float
) -> tuple[float, float]:
    """(g a, u b / Delta) / D with D = 1 + u^2 * curvature and u = g Delta_p.

    Above u = 1 a nonzero curvature carries D as D / u, so u^2 cannot
    overflow; a shift beyond the double range is a ValidationError.
    """
    g = _check_coupling(g)
    u = g / (2.0 * pointer.delta)
    if u == float("inf"):
        raise ValidationError(f"g / delta = {g!r} / {pointer.delta!r} overflows")
    r = max(u, 1.0) if curvature else 1.0
    scaled = 1.0 / r + (u / r) * (u * curvature)  # D / r
    if abs(scaled) * r <= 1e-12:
        raise DegenerateDenominatorError(
            f"second-order denominator D = {scaled * r!r} vanishes for this setup"
        )
    a, b = weak_value.real_part, weak_value.imag_part
    delta_q = (g / r) * a / scaled
    delta_p = b * (u / r) / scaled / pointer.delta if b else 0.0
    if not (isfinite(delta_q) and isfinite(delta_p)):
        raise ValidationError(
            f"pointer shifts ({delta_q!r}, {delta_p!r}) lie beyond the double range"
        )
    return delta_q, delta_p


def jozsa_shifts(weak_value: WeakValue, g: float, pointer: GaussianPointer) -> tuple[float, float]:
    """First-order pointer shifts from a (complex) weak value.

    delta_q = g a,
    delta_p = 2 g b Var_p = u b / Delta,    u = g Delta_p.

    The general position shift carries a further g b term weighted by the
    pointer's <{q, p}>/2 correlation, which vanishes for the zero-centered
    Gaussian pointer.  Raises ValidationError when g / Delta overflows or a
    shift lies beyond the double range.
    """
    return _shifts(weak_value, g, pointer, 0.0)


def second_order_shifts(
    moments: WeakMoments, g: float, pointer: GaussianPointer
) -> tuple[float, float]:
    """Second-order pointer shifts: the first-order ones divided by

        D = 1 + u^2 (two_sided - square_real),    u = g Delta_p.

    Raises
    ------
    DegenerateDenominatorError
        If |D| <= 1e-12.
    ValidationError
        If g / Delta overflows or a shift lies beyond the double range.
    """
    return _shifts(moments.weak_value, g, pointer, moments.two_sided - moments.square_real)


def schwarz_gap(
    rho_s: DensityOperator, pi_f: ProjectionOperator, observable: HermitianObservable
) -> float:
    """The nonnegative gap two_sided - |A_w|^2.

    Zero (to rounding) exactly when the selection is rank one on both sides:
    pure rho_s with a rank-one Pi_f.

    Evaluated through the Lagrange identity rather than by subtracting the two
    moments: with the column sums u = S1 and v = S0 of
    :func:`_selection_sums`, the same vectors that give the moments,

        gap = (1/2) sum |u_a v_b - u_b v_a|^2 / (sum |v|^2)^2.

    The sum of squares keeps the result nonnegative in floating point even when
    a near-orthogonal selection amplifies both moments by orders of magnitude,
    where the plain difference would drown in rounding error.
    """
    (v, u, _), prob = _selection_sums(rho_s, pi_f, observable)
    cross = u[:, None] * v  # the outer product u v^T
    cross -= cross.T
    return 0.5 * float((np.abs(cross) ** 2).sum()) / prob**2
