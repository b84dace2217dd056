"""Information carried by the measuring device about a which-path system.

After coupling to a two-path system, the pointer record lives (up to
irrelevant displacement structure) in the two-dimensional span of the two
displaced pointer states, whose inner product is the overlap
G = exp(-g^2 / (8 delta^2)).  With even priors on the two paths the reduced
device state and its two conditionals, written in that Gram basis, are

    rho_R = 1/2 [[1, G], [G, 1]],    rho_1R = diag(1, 0),   rho_2R = diag(0, 1),

and the Holevo-type information gain is

    I_a = S(rho_R) - (S(rho_1R) + S(rho_2R)) / 2 = h2((1 + G)/2)   [bits],

the binary entropy of the larger eigenvalue of rho_R.  Both routes (entropy
of constructed states vs. the closed form) are evaluated and must agree.
The closed form is taken from h = 1 - G, which keeps its relative
precision where the meter learns almost nothing (G -> 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import extreme_shifts_projector
from .errors import InternalConsistencyError, ValidationError
from .exactengine import GaussianPointer, _check_coupling, _coupling_grid, _one_minus_overlap
from .qcore import DensityOperator, von_neumann_entropy

_ROUTE_TOL = 1e-12


@dataclass(frozen=True)
class InfoGainResult:
    """Information gain at one coupling strength.

    lam is the larger eigenvalue (1 + G)/2 of the evenly mixed device
    state, in [1/2, 1]; i_a is the gain in bits, in [0, 1]; q_min is the
    most negative extremal position shift at the same coupling (NaN at
    g = 0, where the extremes are undefined).
    """

    g: float
    lam: float
    i_a: float
    q_min: float

    def __post_init__(self) -> None:
        if not 0.5 - 1e-12 <= self.lam <= 1.0 + 1e-12:
            raise ValidationError(f"lam {self.lam!r} outside [1/2, 1]")
        if not -1e-12 <= self.i_a <= 1.0 + 1e-12:
            raise ValidationError(f"i_a {self.i_a!r} outside [0, 1]")


def reduced_device_states(
    g: float, delta: float
) -> tuple[DensityOperator, DensityOperator, DensityOperator]:
    """(rho_R, rho_1R, rho_2R) for the two pointer records, one shared basis.

    The off-diagonal of rho_R is G / 2, half the overlap <Phi_1|Phi_0> of
    the pointer displaced by g with the undisplaced one.  The branch records are
    the pure states (a, b) and (b, a) with a^2 + b^2 = 1 and 2ab = G; in
    that basis their even mixture is exactly rho_R and their mutual overlap
    is G.
    """
    delta = GaussianPointer(delta).delta  # validates delta
    h = float(_one_minus_overlap(_check_coupling(g) / delta))
    overlap = 1.0 - h
    rho_r = DensityOperator(np.array([[0.5, 0.5 * overlap], [0.5 * overlap, 0.5]], dtype=complex))
    a = 0.5 * (math.sqrt(1.0 + overlap) + math.sqrt(h))
    b = 0.5 * (math.sqrt(1.0 + overlap) - math.sqrt(h))
    rho_1 = DensityOperator(np.array([[a * a, a * b], [a * b, b * b]], dtype=complex))
    rho_2 = DensityOperator(np.array([[b * b, a * b], [a * b, a * a]], dtype=complex))
    assert np.allclose(0.5 * (rho_1.matrix + rho_2.matrix), rho_r.matrix, atol=1e-14)
    return rho_r, rho_1, rho_2


def _binary_entropy_bits(h: float) -> float:
    """h2((1 + G)/2) in bits from h = 1 - G, to full relative precision.

    Near G = 1 the smaller eigenvalue q = h / 2 carries it; below G = 1/2 a
    symmetric form rises onto ln 2 without rounding wiggles.
    """
    q = 0.5 * h
    if q == 0.0:
        return 0.0
    if q <= 0.25:  # G >= 1/2
        nats = -(1.0 - q) * math.log1p(-q) - q * math.log(q)
    else:
        x = 1.0 - h  # the overlap G
        nats = math.log(2.0) - 0.5 * (math.log1p(-x * x) + 2.0 * x * math.atanh(x))
    return nats / math.log(2.0)


def information_gain(g: float, delta: float = 1.0) -> InfoGainResult:
    """Device information gain at coupling g, dual-route checked.

    Computes I_a once from the entropies of the constructed reduced states
    and once from the closed form h2((1 + G)/2); the routes must agree
    within 1e-12 bits.  q_min is filled from the closed-form extreme at the
    same coupling (NaN at g = 0).

    Raises
    ------
    InternalConsistencyError
        If the two routes disagree.
    """
    rho_r, rho_1, rho_2 = reduced_device_states(g, delta)
    via_entropy = von_neumann_entropy(rho_r) - 0.5 * (
        von_neumann_entropy(rho_1) + von_neumann_entropy(rho_2)
    )
    h = float(_one_minus_overlap(float(g) / float(delta)))  # validated above
    lam = 1.0 - 0.5 * h
    closed = _binary_entropy_bits(h)
    if abs(via_entropy - closed) > _ROUTE_TOL:
        raise InternalConsistencyError(
            f"entropy route {via_entropy!r} and closed form {closed!r} disagree at g = {g!r}"
        )
    q_min = float("nan") if g == 0.0 else extreme_shifts_projector(g, delta)[1]
    return InfoGainResult(g, lam, closed, q_min)


def info_curve(
    g_min: float,
    g_max: float,
    points: int,
    delta: float = 1.0,
    spacing: str = "lin",
) -> list[InfoGainResult]:
    """Sweep the information gain over a coupling range (linear by default).

    g_min = 0 is allowed (its q_min is NaN).  The gain is checked to be
    non-decreasing; it is strictly increasing until the overlap underflow
    plateau near g ~ 12 delta.
    """
    gs = _coupling_grid(g_min, g_max, points, spacing)
    curve = [information_gain(float(g), delta) for g in gs]
    for prev, here in zip(curve, curve[1:]):
        if here.i_a < prev.i_a:
            raise InternalConsistencyError(
                f"information gain decreased between g = {prev.g!r} and {here.g!r}"
            )
    return curve
