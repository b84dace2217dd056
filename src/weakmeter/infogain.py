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

from dataclasses import dataclass

import numpy as np

from .bounds import _LN2, _envelope_curve
from .errors import InternalConsistencyError, ValidationError
from .exactengine import _check_coupling, _coupling_grid, _nondecreasing, _one_minus_overlap, _ratio
from .qcore import _MIN_EIGENVALUE, DensityOperator

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


def _device_states(h: np.ndarray) -> np.ndarray:
    """(rho_R, rho_1R, rho_2R) at each h = 1 - G, stacked (n, 3, 2, 2), real.

    The off-diagonal of rho_R is G / 2, half the overlap <Phi_1|Phi_0> of
    the pointer displaced by g with the undisplaced one.  The branch records are
    the pure states (a, b) and (b, a) with a^2 + b^2 = 1 and 2ab = G; in
    that basis their even mixture is exactly rho_R and their mutual overlap
    is G.
    """
    overlap = 1.0 - h
    a = 0.5 * (np.sqrt(1.0 + overlap) + np.sqrt(h))
    b = 0.5 * (np.sqrt(1.0 + overlap) - np.sqrt(h))
    states = np.empty((len(h), 3, 2, 2))
    states[:, 0] = 0.5
    states[:, 0, 0, 1] = states[:, 0, 1, 0] = 0.5 * overlap
    states[:, 1, 0, 0] = states[:, 2, 1, 1] = a * a
    states[:, 1, 1, 1] = states[:, 2, 0, 0] = b * b
    states[:, 1:, 0, 1] = states[:, 1:, 1, 0] = (a * b)[:, None]
    return states


def reduced_device_states(
    g: float, delta: float
) -> tuple[DensityOperator, DensityOperator, DensityOperator]:
    """(rho_R, rho_1R, rho_2R) for the two pointer records at coupling g, one
    shared basis: the one-point read of :func:`_device_states`."""
    h = _one_minus_overlap(_ratio(np.array([_check_coupling(g)]), delta))
    return tuple(DensityOperator(state) for state in _device_states(h)[0])


def _binary_entropy_bits(h: np.ndarray) -> np.ndarray:
    """h2((1 + G)/2) in bits from h = 1 - G, elementwise, to full relative precision.

    Near G = 1 the smaller eigenvalue q = h / 2 carries it; below G = 1/2 a
    symmetric form rises onto ln 2 without rounding wiggles.
    """
    q = 0.5 * h
    x = 1.0 - h  # the overlap G
    # each branch is kept only where it is exact
    with np.errstate(divide="ignore", invalid="ignore"):
        near = -(1.0 - q) * np.log1p(-q) - q * np.log(q)  # G >= 1/2
        far = _LN2 - 0.5 * (np.log1p(-x * x) + 2.0 * x * np.arctanh(x))
    return np.where(q == 0.0, 0.0, np.where(q <= 0.25, near, far)) / _LN2


def _gain_columns(gs: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays (lam, i_a, q_min) over the couplings in gs (all >= 0), both
    routes checked at each.

    One array pass: the reduced states of :func:`_device_states` take one
    batched eigensolve for the entropy route, which must match the closed
    form within 1e-12 bits at every point.
    """
    h = _one_minus_overlap(_ratio(gs, delta))
    states = _device_states(h)
    spectra = np.linalg.eigvalsh(states)
    mixture = np.isclose(0.5 * (states[:, 1] + states[:, 2]), states[:, 0], atol=1e-14)
    bad = np.flatnonzero((spectra[:, :, 0] < _MIN_EIGENVALUE).any(axis=1) | ~mixture.all(axis=(1, 2)))
    if bad.size:
        raise InternalConsistencyError(
            f"reduced device states are not states at g = {float(gs[bad[0]])!r}"
        )
    # von Neumann entropies in bits; eigenvalues at or below 1e-15 add 0 log 0 = 0
    kept = np.where(spectra > 1e-15, spectra, 1.0)
    entropies = np.maximum(-np.sum(kept * np.log2(kept), axis=2), 0.0)
    via_entropy = entropies[:, 0] - 0.5 * (entropies[:, 1] + entropies[:, 2])
    closed = _binary_entropy_bits(h)
    off = np.flatnonzero(~(np.abs(via_entropy - closed) <= _ROUTE_TOL))  # NaN fails too
    if off.size:
        i = off[0]
        raise InternalConsistencyError(
            f"entropy route {float(via_entropy[i])!r} and closed form {float(closed[i])!r} "
            f"disagree at g = {float(gs[i])!r}"
        )
    q_min = np.full(len(gs), np.nan)  # NaN at g = 0, where the extremes are undefined
    coupled = gs > 0.0
    q_min[coupled] = _envelope_curve(gs[coupled], delta)[1]
    return 1.0 - 0.5 * h, closed, q_min


def information_gain(g: float, delta: float = 1.0) -> InfoGainResult:
    """Device information gain at coupling g, dual-route checked.

    The one-point call of :func:`info_curve`'s array pass: I_a is computed
    once from the entropies of the reduced states and once from the closed
    form h2((1 + G)/2), and the routes must agree within 1e-12 bits.  q_min
    is filled from the closed-form extreme at the same coupling (NaN at
    g = 0).

    Raises
    ------
    InternalConsistencyError
        If the two routes disagree.
    """
    g = _check_coupling(g)
    return InfoGainResult(g, *(float(col[0]) for col in _gain_columns(np.array([g]), delta)))


def info_curve(g_min: float, g_max: float, points: int, delta: float = 1.0) -> list[InfoGainResult]:
    """Sweep the information gain over a linearly spaced coupling range.

    The whole grid goes through one array pass, with the dual-route check
    of :func:`information_gain` on every point.  g_min = 0 is allowed (its
    q_min is NaN).  The gain is checked to be non-decreasing; it is strictly
    increasing until the overlap underflow plateau near g ~ 12 delta.
    """
    gs = _coupling_grid(g_min, g_max, points, "lin")
    lam, gains, q_min = _gain_columns(gs, delta)
    _nondecreasing(gains, gs, "information gain")
    return [InfoGainResult(*pt) for pt in zip(gs.tolist(), lam.tolist(), gains.tolist(), q_min.tolist())]
