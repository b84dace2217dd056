"""Bounds on conditional pointer shifts, and the search for extremal selections.

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

approached when |A_w| ~ 1/(g Delta_p) >> 1.  :func:`optimize_pps` searches
the selection manifold directly and is validated against that envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    InternalConsistencyError,
    RegimeError,
    UndefinedExtremeError,
    ValidationError,
)
from .exactengine import (
    GaussianPointer,
    MeasurementSetup,
    _check_coupling,
    _overlap_kernels,
    _pointer_sums,
    exact_shifts,
)
from .qcore import HermitianObservable, StateVector
from .weakvalue import WeakMoments, weak_moments

# Weak-regime cutoff for the shift bounds (dimensionless g * Delta_p).
WEAK_REGIME_LIMIT = 0.01

# Relative slack allowed on |delta_q| <= Delta and |delta_p| <= Delta_p.
BOUND_RELATIVE_TOL = 1e-6


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


@dataclass(frozen=True)
class ExtremePair:
    """Extremal position shifts: closed-form envelope vs. search results.

    q_max / q_min hold the closed-form envelope when the observable is a
    projector (the trivial pair (g a, g a) when it has a single eigenvalue
    a) and NaN otherwise.  optimizer_best_max / optimizer_best_min are the
    largest and smallest valid delta_q sampled anywhere during the search.
    argmax_states is the (preselection, postselection) pure pair attaining
    the requested objective, phase-fixed so the first significant amplitude
    is real positive.
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
    identically when A^2 = A.

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
    filled in when the observable is a projector and the g -> 0 selection
    probability is nonzero; otherwise it is NaN.  The position ceiling is
    Delta, which holds for two-level observables; one with K > 2 distinct
    eigenvalues can reach z_K * Delta on selections tuned to it (see the
    module notes), so `satisfied` may be False there.
    """
    u = setup.g * setup.pointer.delta_p
    if u > WEAK_REGIME_LIMIT * (1.0 + 1e-12):
        raise RegimeError(
            f"weak-regime bounds require g * Delta_p <= {WEAK_REGIME_LIMIT}, got {u!r}"
        )
    outcome = exact_shifts(setup)
    k = float("nan")
    if setup.observable.is_projector() and setup.selection_prob > 1e-14:
        k = k_value(
            weak_moments(setup.preselection, setup.postselection, setup.observable),
            setup.g,
            setup.pointer,
        )
    bound_q = setup.pointer.delta
    bound_p = setup.pointer.delta_p
    ok = (
        abs(outcome.delta_q) <= bound_q * (1.0 + BOUND_RELATIVE_TOL)
        and abs(outcome.delta_p) <= bound_p * (1.0 + BOUND_RELATIVE_TOL)
    )
    return BoundReport(k, bound_q, bound_p, outcome.delta_q, outcome.delta_p, ok)


def extreme_shifts_projector(g: float, delta: float) -> tuple[float, float]:
    """Closed-form extreme position shifts for a projector observable.

    Over all pure pre/postselections at coupling g > 0,

        q_max/min = (g/2) (1 +/- 1/sqrt(1 - exp(-g^2/(4 delta^2)))).

    The pair is symmetric about g/2; for g << delta it approaches
    +/- delta, for g >> delta it approaches (g, 0).

    Raises
    ------
    UndefinedExtremeError
        At g = 0, where both extremes collapse to zero shift and the
        envelope is undefined as a selection limit, and when g / delta
        underflows so that the envelope cannot be told from that limit.
    """
    delta = GaussianPointer(delta).delta  # validates delta
    g = _check_coupling(g)
    if g == 0.0:
        raise UndefinedExtremeError("extreme shifts are undefined at g = 0")
    ratio = g / delta
    x = 0.25 * ratio * ratio  # saturates to inf, where G = 0 and the pair is (g, 0)
    if x == 0.0:
        raise UndefinedExtremeError(
            f"g / delta = {ratio!r} underflows: the envelope is unresolvable, as at g = 0"
        )
    if x > np.log(2.0):
        # ell = ln(1 - e^-x) is tiny here; routing q_min through expm1(-ell/2)
        # keeps relative precision even when it falls below 1e-10 * g
        ell = np.log1p(-np.exp(-x))
        spread = np.exp(-0.5 * ell)
        q_min = -(g / 2.0) * np.expm1(-0.5 * ell)
    else:
        # 1 - exp(-x) via expm1 keeps full relative precision for g << delta
        spread = 1.0 / np.sqrt(-np.expm1(-x))
        q_min = (g / 2.0) * (1.0 - spread)
    return (g / 2.0) * (1.0 + spread), q_min


def _phase_canonical(v: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(v) > 1e-12 * float(np.max(np.abs(v)))))
    phase = v[idx] / abs(v[idx])
    return v * np.conj(phase)


# Sweeps (pairs of half-steps) per ascent.  A start that overlaps every
# eigenspace reaches the optimum in one half-step; where the postselection
# floor binds, each further sweep gains only about 1e-6 relative.
_MAX_SWEEPS = 4
# N-form eigenvalues below this fraction of the largest are rounding noise.
_RANGE_TOL = 1e-15
# 20 halvings of +/- 3 decades pin the floor's kappa to 6e-6 of a decade.
_FLOOR_BISECTIONS = 20
_KAPPA_DECADES = 3.0


def _eigen_step(
    fixed: np.ndarray,
    sign: float,
    pstack: np.ndarray,
    eigs: np.ndarray,
    ratio: float,
    kernels: np.ndarray,
    floor: float,
) -> np.ndarray:
    """The selection state that extremizes sign * delta_q, the other one fixed.

    With v = `fixed` the u_k = P_k v are orthogonal, and the other state
    x = sum_k x_k u_k / n_k (n_k = |u_k|, |x| = 1) has c_k = n_k x_k, so

        N     = (n . x)^2 - x^T D h D x,
        q_num = g [(n . x)((n o a) . x) - x^T D qker D x],    D = diag(n),

    with the engine's kernels h = 1 - G and qker = (a + a')/2 h (g = `ratio`,
    pointer units).  In a frame whose first axis is n, only that axis
    carries the g-independent terms; eliminating it (a Schur complement)
    before whitening N keeps relative precision at any coupling.  The top
    eigenvector of the whitened sign * q-form M is then the exact
    extremizer.  If its N is at or below `floor`, the best state above the
    floor is the top eigenvector of M - kappa W^T W (W the whitening map)
    at the kappa where N meets the floor; N grows with kappa, so kappa is
    bisected, with N from the cancellation-free sum.  Pre- and
    postselection play symmetric roles, so this is both half-steps.
    """
    h, qker, _ = kernels
    u = pstack @ fixed
    n = np.linalg.norm(u, axis=1)
    live = n > 0.0
    basis = u[live] / n[live, None]
    scale = n[live]
    h = h[np.ix_(live, live)]
    rot = np.linalg.qr(scale[:, None], mode="complete")[0]
    head = rot[:, 0] @ scale
    n_small = rot.T @ (scale[:, None] * h * scale) @ rot
    q_form = -(rot.T @ (scale[:, None] * qker[np.ix_(live, live)] * scale) @ rot)
    cross = (rot.T @ (scale * eigs[live])) * (head / 2.0)
    q_form[0] += cross
    q_form[:, 0] += cross
    pivot = head**2 - n_small[0, 0]
    elim = -n_small[1:, 0] / pivot
    w, v = np.linalg.eigh(-n_small[1:, 1:] - pivot * np.outer(elim, elim))
    keep = w > _RANGE_TOL * w.max(initial=0.0)
    white = np.zeros((scale.size, 1 + int(keep.sum())))
    white[0, 0] = 1.0 / np.sqrt(pivot)
    white[1:, 1:] = v[:, keep] / np.sqrt(w[keep])
    white[0, 1:] = -elim @ white[1:, 1:]
    m = white.T @ ((sign * ratio) * q_form) @ white
    m /= max(float(np.max(np.abs(m))), np.finfo(float).tiny)  # unit scale, same eigenvectors

    def state_and_n(z: np.ndarray) -> tuple[np.ndarray, float]:
        x = rot @ (white @ z)
        x /= np.linalg.norm(x)
        c = scale * x
        return x, float(c.sum() ** 2 - c @ h @ c)

    x, n_val = state_and_n(np.linalg.eigh(m)[1][:, -1])
    if n_val <= floor:
        penalty = white.T @ white
        # kappa lands near sqrt(floor / |W^T W|) on the unit scale of M: the
        # geometric mean of the floor and the smallest N-form eigenvalue
        mid_log = 0.5 * np.log(floor / np.trace(penalty))
        lo, hi = mid_log - _KAPPA_DECADES * np.log(10.0), mid_log + _KAPPA_DECADES * np.log(10.0)
        for _ in range(_FLOOR_BISECTIONS):
            mid = 0.5 * (lo + hi)
            trial, n_val = state_and_n(np.linalg.eigh(m - np.exp(mid) * penalty)[1][:, -1])
            if n_val > floor:
                x, hi = trial, mid
            else:
                lo = mid
    state = x @ basis
    return state / np.linalg.norm(state)


def optimize_pps(
    observable: HermitianObservable,
    g: float,
    pointer: GaussianPointer,
    objective: str = "max",
    restarts: int = 64,
    seed: int = 0,
    min_postselect: float = 1e-12,
) -> ExtremePair:
    """Search pure pre/postselection pairs for extremal position shifts.

    Alternating Rayleigh-quotient ascent from `restarts` random pure pairs.
    With the preselection fixed, N and the q-numerator are quadratic forms
    in the postselection, so the postselection that maximizes (or
    minimizes) delta_q = q_num / N is an eigenvector of the whitened pair,
    found exactly (:func:`_eigen_step`); the next half-step does the same
    for the preselection.  Each half-step is exact, so the ascent is
    monotone; it stops when a half-step gains no more than rounding, or
    after a fixed number of sweeps.  Both directions are explored from
    every start; `objective` only selects which extremal pair of states is
    returned.  Every iterate is scored with the exact engine's
    cancellation-free amplitude sums, never with the eigenvalue.  Fully
    deterministic for a fixed seed.

    Selections with postselection probability <= `min_postselect` are not
    recorded: below that, double precision cannot certify shifts against
    the envelope.  (The engine's own orthogonality floor is 1e-14; callers
    probing the saturation ridge may lower `min_postselect` toward it.)
    Where a half-step's extremizer lies below the floor it takes the best
    state above it, so at weak coupling the search follows the
    floor-limited ridge rather than the envelope.

    Raises
    ------
    UndefinedExtremeError
        At g = 0, or when g / Delta is too small to tell the displaced
        pointers apart in double precision.
    ValidationError
        When g / Delta overflows.
    InternalConsistencyError
        If any sampled shift escapes the closed-form envelope by more than
        1e-9 (scaled), for projector observables.
    """
    if objective not in ("max", "min"):
        raise ValidationError(f"objective must be 'max' or 'min', got {objective!r}")
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts!r}")
    g = _check_coupling(g)
    delta = pointer.delta
    # delta_q / Delta depends on g only through g / Delta, so the search runs
    # in pointer units; no kernel then scales with a power of Delta.
    ratio = g / delta
    if not np.isfinite(ratio):
        raise ValidationError(f"g / delta = {g!r} / {delta!r} overflows")
    if min_postselect < 1e-14:
        raise ValidationError("min_postselect must be >= the 1e-14 orthogonality floor")

    d = observable.dimension
    eigs, pstack = observable.eigenvalues, observable.projectors
    kernels = _overlap_kernels(eigs, ratio)
    # 1 - G below the normal range has no precision left: the displaced
    # pointers cannot be told apart, as at g = 0 (the identity masks the
    # zero diagonal)
    if ratio == 0.0 or np.any(kernels[0] + np.eye(len(eigs)) < np.finfo(float).tiny):
        raise UndefinedExtremeError(f"extremal search is undefined at g / delta = {ratio!r}")

    # closed-form envelope where one exists
    if observable.is_projector():
        if len(eigs) == 2:
            env_max, env_min = extreme_shifts_projector(g, delta)
        else:
            env_max = env_min = g * float(eigs[0])
    else:
        env_max = env_min = float("nan")

    samples = []  # (delta_q, preselection, postselection) above the floor

    def score(pre: np.ndarray, post: np.ndarray) -> float | None:
        c = (pstack @ pre) @ post.conj()
        n_val, q_num, _, _ = _pointer_sums(c[:, None], eigs, kernels)
        if n_val <= min_postselect:
            return None
        dq = g * float(q_num / n_val)
        samples.append((dq, pre, post))
        return dq

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = rng.standard_normal((restarts, 2, 2, d))
    starts = draws[:, :, 0] + 1j * draws[:, :, 1]
    starts /= np.linalg.norm(starts, axis=2, keepdims=True)

    rounding = 1e-14 * max(delta, g * float(np.max(np.abs(eigs))))
    for pre, post in starts:
        score(pre, post)
        for sign in (1.0, -1.0):
            pair = [pre, post]
            best = -np.inf
            for half in range(2 * _MAX_SWEEPS):
                side = 1 - half % 2  # the postselection moves first
                pair[side] = _eigen_step(
                    pair[1 - side], sign, pstack, eigs, ratio, kernels, min_postselect
                )
                dq = score(*pair)
                if dq is None:
                    continue
                if sign * dq <= best + rounding:
                    break
                best = sign * dq

    if not samples:
        raise InternalConsistencyError(
            "no valid selection found above the postselection-probability floor"
        )
    top = max(samples, key=lambda sample: sample[0])
    bottom = min(samples, key=lambda sample: sample[0])
    best_max, best_min = top[0], bottom[0]
    tol = 1e-9 * max(1.0, delta, g * float(np.max(np.abs(eigs))))
    if np.isfinite(env_max) and (best_max > env_max + tol or best_min < env_min - tol):
        raise InternalConsistencyError(
            f"sampled shifts [{best_min!r}, {best_max!r}] escape the envelope "
            f"[{env_min!r}, {env_max!r}]"
        )

    _, pre, post = top if objective == "max" else bottom
    arg_states = (StateVector(_phase_canonical(pre)), StateVector(_phase_canonical(post)))
    return ExtremePair(env_max, env_min, best_max, best_min, arg_states)
