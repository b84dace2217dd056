"""Bounds on conditional pointer shifts, and the extremal selections.

In the weak regime (g * Delta_p <= 0.01) the conditional position shift of
the Gaussian pointer of a two-level observable can never exceed
1/(2 Delta_p) = Delta, and the momentum shift can never exceed Delta_p, no
matter how anomalous the weak value is.  An observable with K distinct
eigenvalues can go further: as g -> 0 its displaced pointers span the first
K Hermite functions, on which <q> reaches z_K * Delta, z_K the largest zero
of the Hermite polynomial He_K (z_2 = 1, z_3 = sqrt(3), z_4 ~ 2.334).  At
arbitrary coupling, for a projector observable, the exact extremes over all
pure pre/postselections are

    q_max/min = (g/2) * (1 +/- 1 / sqrt(1 - exp(-g^2 / (4 Delta^2)))),

approached when |A_w| ~ 1/(g Delta_p) >> 1.  For any observable the extremes
over all selections are the top and bottom of a K x K generalized
eigenproblem; :func:`optimize_pps` solves it, builds the selections that
attain it, and is validated against that envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np

from .errors import (
    ContractError,
    InternalConsistencyError,
    OrthogonalSelectionError,
    RegimeError,
    ValidationError,
)
from .exactengine import (
    ORTHOGONALITY_FLOOR,
    GaussianPointer,
    MeasurementSetup,
    _TINY,
    _check_coupling,
    _column_sums,
    _level_facts,
    _pointer_sums,
    _pointer_terms,
    _ratio,
    _told_apart,
    exact_shifts,
)
from .qcore import _MAX_SPECTRAL_DIM, HermitianObservable, StateVector
from .weakvalue import WeakMoments, weak_moments

# Weak-regime cutoff for the shift bounds (dimensionless g * Delta_p).
WEAK_REGIME_LIMIT = 0.01

# Relative slack allowed on |delta_q| <= Delta and |delta_p| <= Delta_p.
BOUND_RELATIVE_TOL = 1e-6

# The projector envelope switches branch at x = g^2 / (4 Delta^2) = ln 2.
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking one weak-regime setup against the shift bounds.

    k_value is the positivity factor for projector observables (NaN when
    the observable is not a projector); bound_q = 1/(2 Delta_p) and
    bound_p = Delta_p are the weak-regime ceilings; observed_q/observed_p
    are the exact shifts; satisfied reports both |observed| <= bound within
    relative 1e-6.
    """

    k_value: float
    bound_q: float
    bound_p: float
    observed_q: float
    observed_p: float
    satisfied: bool


@dataclass(frozen=True, eq=False)
class ExtremePair:
    """Extremal position shifts: closed-form envelope vs. constructed selections.

    q_max / q_min hold the closed-form envelope when the observable is a
    projector (the trivial pair (g a, g a) when it has a single eigenvalue
    a) and NaN otherwise.  optimizer_best_max / optimizer_best_min are the
    exact-engine delta_q of the selections constructed for the largest and
    the smallest shift.  argmax_states is the (preselection, postselection)
    pure pair of the requested objective, phase-fixed so the first
    significant amplitude is real positive.
    """

    q_max: float
    q_min: float
    optimizer_best_max: float
    optimizer_best_min: float
    argmax_states: tuple[StateVector, StateVector]


def k_value(moments: WeakMoments, g: float, pointer: GaussianPointer) -> float:
    """Positivity factor K = 1 + (g Delta_p)^2 (two_sided - Re A_w).

    Defined for projector observables with g * Delta_p <= 1; K >= 0 there
    (numerically: >= -1e-10).  The projector precondition is checked
    through its moment-level signature Re<A^2>_w = Re<A>_w, which holds
    identically when A^2 = A, and to rounding in :func:`weak_moments`.

    Raises
    ------
    ContractError
        If the moments do not carry the projector signature.
    RegimeError
        If g * Delta_p > 1.
    InternalConsistencyError
        If K < -1e-10 (a proven inequality would be violated).
    """
    u = _check_coupling(g) * pointer.delta_p
    if u > 1.0 + 1e-12:
        raise RegimeError(f"K factor requires g * Delta_p <= 1, got {u!r}")
    sig_scale = max(1.0, abs(moments.square_real), abs(moments.weak_value.real_part))
    if abs(moments.square_real - moments.weak_value.real_part) > 1e-10 * sig_scale:
        raise ContractError(
            "moments lack the projector signature Re<A^2>_w = Re<A>_w "
            f"({moments.square_real!r} vs {moments.weak_value.real_part!r})"
        )
    k = 1.0 + u**2 * (moments.two_sided - moments.weak_value.real_part)
    if k < -1e-10:
        raise InternalConsistencyError(f"positivity factor K = {k!r} below -1e-10")
    return k


def check_weak_bounds(setup: MeasurementSetup) -> BoundReport:
    """Evaluate the exact shifts of a weak-regime setup against the bounds.

    Requires g * Delta_p <= 0.01 (RegimeError otherwise).  The K factor is
    filled in when the observable's levels are a projector's (`is_projector`)
    and :func:`weak_moments` accepts the selection; otherwise it is NaN.
    The position ceiling is Delta, which holds for two-level observables;
    one with K > 2 distinct eigenvalues can reach z_K * Delta on selections
    tuned to it (see the module notes), so `satisfied` may be False there.
    """
    u = setup.g * setup.pointer.delta_p
    if u > WEAK_REGIME_LIMIT * (1.0 + 1e-12):
        raise RegimeError(
            f"weak-regime bounds require g * Delta_p <= {WEAK_REGIME_LIMIT}, got {u!r}"
        )
    outcome = exact_shifts(setup)
    k = float("nan")
    if setup.observable.is_projector():
        try:
            moments = weak_moments(setup.preselection, setup.postselection, setup.observable)
        except OrthogonalSelectionError:
            pass  # K stays NaN
        else:
            k = k_value(moments, setup.g, setup.pointer)
    bound_q = setup.pointer.delta
    bound_p = setup.pointer.delta_p
    ok = (
        abs(outcome.delta_q) <= bound_q * (1.0 + BOUND_RELATIVE_TOL)
        and abs(outcome.delta_p) <= bound_p * (1.0 + BOUND_RELATIVE_TOL)
    )
    return BoundReport(k, bound_q, bound_p, outcome.delta_q, outcome.delta_p, ok)


def _envelope_curve(gs: np.ndarray, delta: float) -> np.ndarray:
    """Rows (q_max, q_min) of the projector envelope (module notes) at
    couplings gs, each point on its own branch; UndefinedExtremeError at the
    first g whose pointers cannot be told apart.  :func:`optimize_pps` takes
    its own scalar branch."""
    ratio = _told_apart(_ratio(gs, delta), np.ones(1), 1.0)[0]  # the levels 0 and 1, one spread
    x = 0.25 * ratio * ratio
    with np.errstate(divide="ignore"):  # each branch is kept only where it is exact
        return np.where(x > _LN2, _envelope_far(gs, x), _envelope_near(gs, x))


def _envelope_far(g, x):
    """(q_max, q_min) for x = g^2 / (4 delta^2) > ln 2; floats or arrays."""
    # ell = ln(1 - e^-x) is tiny here; routing q_min through expm1(-ell/2)
    # keeps relative precision even when it falls below 1e-10 * g
    ell = np.log1p(-np.exp(-x))
    return (g / 2.0) * (1.0 + np.exp(-0.5 * ell)), -(g / 2.0) * np.expm1(-0.5 * ell)


def _envelope_near(g, x):
    """(q_max, q_min) for 0 < x <= ln 2; floats or arrays."""
    # 1 - exp(-x) via expm1 keeps full relative precision for g << delta
    spread = 1.0 / np.sqrt(-np.expm1(-x))
    return (g / 2.0) * (1.0 + spread), (g / 2.0) * (1.0 - spread)


def _phase_canonical(v: np.ndarray) -> StateVector:
    """The state of v with its first amplitude above 1e-12 of the largest
    turned real positive."""
    size = np.abs(v)
    idx = int(np.argmax(size > 1e-12 * float(np.max(size))))
    # the scalar abs, not size[idx]: numpy's array loop may round it differently
    return StateVector._built(v * np.conj(v[idx] / abs(v[idx])))


# The unit roundoff of a double.
_EPS = np.finfo(float).eps
# N-form eigenvalues below this fraction of the largest are rounding noise.
_RANGE_TOL = 1e-15
# Units of N's rounding, eps (|1 . c| + |c|^T h |c|) at ||c||_1 = 1, that a
# floor test demands above the floor, to cover the states built from c.
_N_SLACK = 4.0
# Floor bisections halve +/- 16 decades of kappa 44 times, to 4e-12 of ln kappa.
_KAPPA_SPAN = 16.0 * np.log(10.0)
_FLOOR_BISECTIONS = 44


@lru_cache(maxsize=_MAX_SPECTRAL_DIM)  # an observable has K <= d <= 8 levels
def _ones_frame(k: int) -> tuple[np.ndarray, float]:
    """An orthogonal K x K frame whose first axis is the all-ones direction
    (Householder, read-only), and the sum of that first column."""
    rot = np.linalg.qr(np.ones((k, 1)), mode="complete")[0]
    rot.flags.writeable = False
    return rot, rot[:, 0].sum()


def _pencil_extremes(
    eigs: np.ndarray, ratio: float, h: np.ndarray, qker: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """Real amplitudes c_k = <f|P_k|i>, ||c||_1 = 1, of the largest and smallest delta_q.

    A pure selection enters the shift only through c.  With the engine's
    K x K kernels h = 1 - G and qker = (a + a')/2 h (g = `ratio`, pointer units),

        N     = (1 . c)^2 - c^T h c,
        q_num = g [(1 . c)(a . c) - c^T qker c],

    so delta_q = q_num / N is the Rayleigh quotient of the K x K pencil
    (Q, G).  In a frame whose first axis is 1 (:func:`_ones_frame`, formed
    once per K), only that axis carries the g-independent terms;
    eliminating it (a Schur complement) before whitening N keeps them exact
    at any coupling, though the whitening loses digits as G nears singular
    (K >= 6, g ~ Delta).  One eigendecomposition
    of the whitened q-form M serves both directions: its top eigenvector is
    the maximizer over all selections and its bottom one the minimizer.

    If a direction's N is at or below `floor`, with s its signs and c = F z
    (F the frame and whitening map, N = z^T z), ||c||_1 = s . c = b^T z for
    b = F^T s: the best c above the floor with those signs is the top
    eigenvector of +/-M - kappa b b^T at the kappa, bisected, where
    N / ||c||_1^2 meets the floor.  If none clears it, the penalty is
    ||c||_2^2 >= ||c||_1^2 / K, which reaches N / ||c||_1^2 >= 1 / K.
    """
    rot, head = _ones_frame(len(eigs))
    n_small = rot.T @ h @ rot
    q_form = -(rot.T @ qker @ rot)
    cross = (rot.T @ eigs) * (head / 2.0)
    q_form[0] += cross
    q_form[:, 0] += cross
    pivot = head**2 - n_small[0, 0]
    elim = -n_small[1:, 0] / pivot
    w, v = np.linalg.eigh(-n_small[1:, 1:] - pivot * np.outer(elim, elim))
    keep = w > _RANGE_TOL * w.max(initial=0.0)
    white = np.zeros((len(eigs), 1 + int(keep.sum())))
    white[0, 0] = 1.0 / np.sqrt(pivot)
    white[1:, 1:] = v[:, keep] / np.sqrt(w[keep])
    white[0, 1:] = -elim @ white[1:, 1:]
    m = white.T @ (ratio * q_form) @ white
    m /= max(float(np.max(np.abs(m))), _TINY)  # unit scale, same eigenvectors
    frame = rot @ white

    def amplitudes(z: np.ndarray) -> tuple[np.ndarray, float]:
        c = frame @ z
        c /= np.abs(c).sum()
        s0 = c.sum()
        slack = _N_SLACK * _EPS * (abs(s0) + np.abs(c) @ h @ np.abs(c))
        return c, float(s0**2 - c @ h @ c - slack)

    def above_floor(form: np.ndarray, z: np.ndarray) -> np.ndarray:
        c, n_val = amplitudes(z)
        if n_val > floor:
            return c
        b = frame.T @ np.sign(c)
        for penalty in (np.outer(b, b), frame.T @ frame):
            # kappa lands near sqrt(floor / tr(penalty)) on the unit scale of M
            mid = 0.5 * np.log(floor / np.trace(penalty))
            lo, hi, best = mid - _KAPPA_SPAN, mid + _KAPPA_SPAN, None
            for _ in range(_FLOOR_BISECTIONS):
                t = 0.5 * (lo + hi)
                trial, n_val = amplitudes(np.linalg.eigh(form - np.exp(t) * penalty)[1][:, -1])
                if n_val > floor:
                    best, hi = trial, t
                else:
                    lo = t
            if best is not None:
                return best
        raise InternalConsistencyError("no selection clears the postselection-probability floor")

    z = np.linalg.eigh(m)[1]
    return above_floor(m, z[:, -1]), above_floor(-m, z[:, 0])


def optimize_pps(
    observable: HermitianObservable,
    g: float,
    pointer: GaussianPointer,
    objective: str = "max",
    restarts: int = 64,
    seed: int = 0,
    min_postselect: float = 1e-12,
) -> ExtremePair:
    """Pure pre/postselection pairs with extremal position shifts.

    No search: a pure selection enters delta_q only through the amplitudes
    c_k = <f|P_k|i>, every c with ||c||_1 = 1 is reached, and the extremes
    over all selections are the top and bottom of a K x K pencil, both read
    off one solve (:func:`_pencil_extremes`).  With e_k a fixed unit vector
    in the range of P_k, the unit-norm selection

        f = sum_k sqrt|c_k| e_k,    i = sum_k sign(c_k) sqrt|c_k| e_k

    has exactly those amplitudes.  Each direction's selection is scored
    once with the exact engine's cancellation-free sums, on the observable's
    level geometry and the call's one set of overlaps G - 1; `objective`
    only selects which pair is returned, and its states are built and
    checked in one step.  What does not depend on g is kept between calls:
    the all-ones frame, per K, and the observable object's geometry, e_k and
    projector verdict, in the record :func:`.exactengine._level_facts` keeps
    for the last few observables.  Every call solves the pencil and scores
    its selections afresh.  `restarts` (an integer >= 1) and `seed` (>= 0) change
    nothing; they remain only because the perfbench extremal workload passes them.

    Selections with postselection probability <= `min_postselect` are
    excluded: below that, double precision cannot certify shifts against
    the envelope.  (The engine's own orthogonality floor is 1e-14; callers
    probing the saturation ridge may lower `min_postselect` toward it.)
    Where the extremizer lies below the floor, the best selection above it
    is taken, so at weak coupling the result follows the floor-limited
    ridge rather than the envelope.  The floor is cleared by a few rounding
    units of N, so the engine's N of the returned states may differ from
    the solver's by about that much.

    The solve takes g / Delta clipped as the engine's overlap step clips
    it, at 1e150 over the level span, where every G of distinct levels is 0:
    past that the extremes saturate at g a_max and g a_min.  The envelope is
    NaN unless the levels are a projector's (:meth:`.HermitianObservable.is_projector`).

    Raises
    ------
    UndefinedExtremeError
        Where the displaced pointers cannot be told apart: g / Delta times
        the gap of some two levels below about 4.2e-154, g = 0 included.
    ValidationError
        When g / Delta overflows, `restarts` is not an integer >= 1,
        `seed` an integer >= 0 or `min_postselect` a real number in
        [1e-14, 1), or a constructed shift lies beyond the double range.
    InternalConsistencyError
        If no selection clears the floor, or, for projector observables, if
        either shift escapes the closed-form envelope by more than 1e-9
        (scaled).
    """
    if objective not in ("max", "min"):
        raise ValidationError(f"objective must be 'max' or 'min', got {objective!r}")
    if isinstance(restarts, bool) or not isinstance(restarts, (int, np.integer)) or restarts < 1:
        raise ValidationError(f"restarts must be an integer >= 1, got {restarts!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    g = _check_coupling(g)
    delta = pointer.delta
    # delta_q / Delta depends on g only through g / Delta, so the solve runs
    # in pointer units; no kernel then scales with a power of Delta.
    ratio = g / delta
    if not math.isfinite(ratio):
        raise ValidationError(f"g / delta = {g!r} / {delta!r} overflows")
    # N <= 1, so no selection clears a floor at or above 1; NaN fails too
    if not (isinstance(min_postselect, Real) and ORTHOGONALITY_FLOOR <= min_postselect < 1.0):
        raise ValidationError(
            f"min_postselect must be a real number in [{ORTHOGONALITY_FLOOR!r}, 1), got {min_postselect!r}"
        )

    eigs, pstack, facts = observable.eigenvalues, observable.projectors, _level_facts(observable)
    k, geometry, units = len(eigs), facts.geometry, facts.units
    ratio, h = _told_apart(ratio, geometry.spread, geometry.span)  # h = 1 - G, -h the scorings' overlaps

    # closed-form envelope where one exists
    if facts.is_projector:
        if k == 2:  # levels 0 and 1 within 1e-10, told apart above at this ratio
            x = 0.25 * ratio * ratio
            env_max, env_min = map(float, (_envelope_far if x > _LN2 else _envelope_near)(g, x))
        else:
            env_max = env_min = g * float(eigs[0])
    else:
        env_max = env_min = float("nan")

    def selection(c: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        root = np.sqrt(np.abs(c))
        pre, post = (np.sign(c) * root) @ units, root @ units
        amplitudes = ((pstack @ pre) @ post.conj())[:, None]
        terms = _pointer_terms(amplitudes, geometry, _column_sums(amplitudes, eigs))
        n_val, q_num, _, _ = _pointer_sums(terms, overlaps)
        return g * (q_num / n_val), pre, post

    qker, overlaps = (geometry.coef[:, 1, 0] * h).reshape(k, k), -h  # (a + a')/2 h and G - 1
    c_max, c_min = _pencil_extremes(eigs, ratio, h.reshape(k, k), qker, float(min_postselect))
    best_max, *top = selection(c_max)
    best_min, *bottom = selection(c_min)
    if not (math.isfinite(best_max) and math.isfinite(best_min)):
        raise ValidationError(f"constructed shifts [{best_min!r}, {best_max!r}] lie beyond the double range")
    tol = 1e-9 * max(1.0, delta, g * max(-float(eigs[0]), float(eigs[-1])))  # levels ascend
    if np.isfinite(env_max) and (best_max > env_max + tol or best_min < env_min - tol):
        raise InternalConsistencyError(
            f"constructed shifts [{best_min!r}, {best_max!r}] escape the envelope "
            f"[{env_min!r}, {env_max!r}]"
        )

    pre, post = top if objective == "max" else bottom
    return ExtremePair(env_max, env_min, best_max, best_min, (_phase_canonical(pre), _phase_canonical(post)))
