"""Randomized verification suites behind ``weakmeter verify``.

Each suite sweeps a fixed-seed family of random instances against the
package's proven invariants and reports a single worst margin, normalized
as the *fraction of tolerance remaining*: 1 means zero error, 0 means
exactly at tolerance, negative means violation.  On violation the instance
is serialized (scenario schema) so it can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hardy, infogain
from .bounds import check_weak_bounds, k_value, optimize_pps
from .errors import InternalConsistencyError, OrthogonalSelectionError, ValidationError
from .exactengine import GaussianPointer, GridSpec, MeasurementSetup, exact_shifts, grid_shifts
from .qcore import DensityOperator, von_neumann_entropy
from .sampling import (
    random_density,
    random_hermitian,
    random_projector,
    random_projector_observable,
    random_state,
)
from .scenario import setup_to_json
from .weakvalue import schwarz_gap, weak_moments

SUITE_NAMES = ("schwarz", "bounds", "oracle", "hardy", "info")


@dataclass
class SuiteResult:
    name: str
    instances: int
    worst_margin: float
    detail: str
    violating_instance: dict | None = None

    @property
    def passed(self) -> bool:
        return self.worst_margin >= 0.0


@dataclass
class _Worst:
    """Keeps the minimum margin seen and the MeasurementSetup arguments that
    produced it; :meth:`result` serializes them only for a violation."""

    margin: float = np.inf
    label: str = ""
    instance: tuple = ()

    def update(self, margin: float, label: str, *setup_args) -> None:
        if margin < self.margin:
            self.margin = margin
            self.label = label
            self.instance = setup_args

    def result(self, name: str, instances: int) -> SuiteResult:
        violating = None
        if self.margin < 0.0 and self.instance:
            violating = setup_to_json(MeasurementSetup(*self.instance))
        return SuiteResult(name, instances, self.margin, f"worst check: {self.label}", violating)


def _random_selection(rng: np.random.Generator, dim: int):
    """A random (rho, pi) pair mixing purities and projector ranks."""
    rho = random_state(rng, dim).density() if rng.random() < 0.5 else random_density(rng, dim)
    rank = int(rng.integers(1, dim))
    pi = random_projector(rng, dim, rank)
    return rho, pi


def schwarz_suite() -> SuiteResult:
    """two_sided >= |A_w|^2 always; equality for rank-one selections.

    10^4 random (rho, Pi, A) triples at d <= 6 against C >= -1e-10, plus
    10^3 pure-state rank-one selections against |C| <= 1e-10.
    """
    rng = np.random.default_rng(20240811)
    worst = _Worst()
    pointer = GaussianPointer(1.0)
    n_general = 10_000
    n_rank_one = 1_000
    done = 0
    while done < n_general:
        dim = int(rng.integers(2, 7))
        rho, pi = _random_selection(rng, dim)
        obs = random_hermitian(rng, dim) if rng.random() < 0.5 else random_projector_observable(rng, dim)
        try:
            c = schwarz_gap(rho, pi, obs)
        except OrthogonalSelectionError:
            continue
        worst.update((c + 1e-10) / 1e-10, "gap >= -1e-10", obs, rho, pi, 0.0, pointer)
        done += 1
    done = 0
    while done < n_rank_one:
        dim = int(rng.integers(2, 7))
        rho = random_state(rng, dim).density()
        pi = random_state(rng, dim).projector()
        obs = random_hermitian(rng, dim)
        try:
            c = schwarz_gap(rho, pi, obs)
        except OrthogonalSelectionError:
            continue
        worst.update((1e-10 - abs(c)) / 1e-10, "rank-one equality", obs, rho, pi, 0.0, pointer)
        done += 1
    return worst.result("schwarz", n_general + n_rank_one)


# q / Delta = b + b^+ on the first 32 Fock states
_POSITION = np.diag(np.sqrt(np.arange(1, 32)), 1)
_POSITION += _POSITION.T
_POSITION.flags.writeable = False


def _weak_ceiling(levels: int) -> float:
    """z_K, the largest zero of the probabilists' Hermite polynomial He_K.

    As g -> 0 the displaced pointers Phi(q - g a_k) of K distinct levels span
    the first K Hermite functions, on which <q> is at most z_K * Delta:
    z_2 = 1, z_3 = sqrt(3), z_4 = sqrt(3 + sqrt(6)).  It is the top
    eigenvalue of He_K's Jacobi matrix, the K x K block of b + b^+.
    """
    return float(np.linalg.eigvalsh(_POSITION[:levels, :levels])[-1])


def _fock_frame(eigenvalues: np.ndarray, ratio: float):
    """Displaced pointers as coherent states |alpha>, alpha = (g / Delta) a / 2.

    Returns their rows e^(-alpha^2/2) alpha^n / sqrt(n!) on the first 32
    Fock states (ample while |alpha| << 1), an orthonormal basis of their
    span, and q / Delta = b + b^+.  The basis comes from the Newton form
    w_j = sum_n h_(n-j)(alpha_0..alpha_j) |n> / sqrt(n!), h the complete
    homogeneous symmetric polynomials, which stays well conditioned however
    close the alpha_k lie (weak coupling); the rows do not.
    """
    alpha = 0.5 * ratio * np.asarray(eigenvalues, dtype=float)
    n = np.arange(32)
    root_factorial = np.sqrt(np.cumprod(np.maximum(n, 1.0)))
    newton = np.zeros((n.size, len(alpha)))
    h = (n == 0).astype(float)  # the h_m of no nodes
    for j, a in enumerate(alpha):
        h = np.convolve(h, a**n)[: n.size]  # one more node: times 1 / (1 - a t)
        newton[j:, j] = h[: n.size - j]
    span = np.linalg.qr(newton / root_factorial[:, None])[0]
    states = np.exp(-0.5 * alpha**2)[:, None] * alpha[:, None] ** n / root_factorial
    return states, span, _POSITION


def bounds_suite() -> SuiteResult:
    """K positivity, weak-regime shift bounds, and the universal-bound margin.

    10^4 projector setups with g * Delta_p in (0, 1] against K >= -1e-10;
    2 * 10^3 weak-regime setups against |delta_q| <= Delta and
    |delta_p| <= Delta_p (relative 1e-6); 500 random Hermitian observables
    (d <= 4, spectrum in [-1, 1]) at g * Delta_p = 0.01, solved with
    :func:`optimize_pps`, against 1.02 times the K-level ceiling z_K * Delta,
    and, where the postselection floor does not bind, the returned max
    selection against the top of the pencil (Q, G) to relative 1e-12, both
    evaluated in the Fock basis (:func:`_fock_frame`).
    """
    rng = np.random.default_rng(20240812)
    worst = _Worst()
    delta = 1.0
    pointer = GaussianPointer(delta)

    done = 0
    while done < 10_000:
        dim = int(rng.integers(2, 5))
        rho, pi = _random_selection(rng, dim)
        obs = random_projector_observable(rng, dim)
        g = 2.0 * delta * rng.uniform(1e-6, 1.0)  # u = g * delta_p in (0, 1]
        try:
            k = k_value(weak_moments(rho, pi, obs), g, pointer)
        except OrthogonalSelectionError:
            continue
        worst.update((k + 1e-10) / 1e-10, "K >= -1e-10", obs, rho, pi, g, pointer)
        done += 1

    done = 0
    while done < 2_000:
        dim = int(rng.integers(2, 5))
        rho, pi = _random_selection(rng, dim)
        obs = random_hermitian(rng, dim) if rng.random() < 0.5 else random_projector_observable(rng, dim)
        g = 2.0 * delta * 10.0 ** rng.uniform(-4, np.log10(0.01))
        setup = MeasurementSetup(obs, rho, pi, g, pointer)
        try:
            rep = check_weak_bounds(setup)
        except OrthogonalSelectionError:
            continue
        m_q = (rep.bound_q * (1.0 + 1e-6) - abs(rep.observed_q)) / rep.bound_q
        m_p = (rep.bound_p * (1.0 + 1e-6) - abs(rep.observed_p)) / rep.bound_p
        worst.update(min(m_q, m_p), "weak-regime shift bounds", obs, rho, pi, g, pointer)
        done += 1

    g = 0.02 * delta  # u = 0.01
    for _ in range(500):
        dim = int(rng.integers(2, 5))
        obs = random_hermitian(rng, dim)
        search = optimize_pps(obs, g, pointer)
        top = max(search.optimizer_best_max, -search.optimizer_best_min)
        ceiling = _weak_ceiling(len(obs.eigenvalues)) * delta
        instance = (obs, DensityOperator(np.eye(dim) / dim), random_projector(rng, dim, 1), g, pointer)
        worst.update((1.02 * ceiling - top) / ceiling, "optimized |delta_q| <= 1.02 * z_K * Delta", *instance)
        states, span, position = _fock_frame(obs.eigenvalues, g / delta)
        pencil = np.linalg.eigvalsh(span.T @ position @ span)[-1]
        pre, post = (s.amplitudes for s in search.argmax_states)
        psi = ((obs.projectors @ pre) @ post.conj()) @ states
        n_val = np.vdot(psi, psi).real
        rel = float(np.vdot(psi, position @ psi).real / n_val / pencil - 1.0)
        # a floor-bound selection sits just above the floor; only an excess counts there
        miss = abs(rel) if n_val > 2e-12 else max(rel, 0.0)
        worst.update((1e-12 - miss) / 1e-12, "max selection meets the pencil to 1e-12", *instance)
    return worst.result("bounds", 12_500)


def oracle_suite() -> SuiteResult:
    """Closed-form engine vs. grid quadrature on random setups.

    200 random setups at d <= 4, g/delta log-uniform in [0.01, 10]:
    |dq| route difference <= 1e-8 * delta and |dp| route difference
    <= 1e-8 * delta_p.
    """
    rng = np.random.default_rng(20240813)
    worst = _Worst()
    done = 0
    while done < 200:
        dim = int(rng.integers(2, 5))
        rho, pi = _random_selection(rng, dim)
        obs = random_hermitian(rng, dim) if rng.random() < 0.5 else random_projector_observable(rng, dim)
        delta = float(rng.choice([0.5, 1.0, 2.0]))
        g = delta * 10.0 ** rng.uniform(-2, 1)
        pointer = GaussianPointer(delta)
        setup = MeasurementSetup(obs, rho, pi, g, pointer)
        try:
            ex = exact_shifts(setup)
            gr = grid_shifts(setup, GridSpec.for_setup(setup))
        except OrthogonalSelectionError:
            continue
        err = max(
            abs(ex.delta_q - gr.delta_q) / delta,
            abs(ex.delta_p - gr.delta_p) * 2.0 * delta,  # per delta_p = 1/(2 delta)
        )
        worst.update((1e-8 - err) / 1e-8, "engine vs grid", obs, rho, pi, g, pointer)
        done += 1
    return worst.result("oracle", 200)


def hardy_suite() -> SuiteResult:
    """Closed-form agreement, limits, and monotonicity of the paradox curve."""
    worst = _Worst()
    delta = 1.0
    try:
        curve = hardy.probability_curve(1e-3, 10.0, 200, delta, spacing="log")
    except InternalConsistencyError as exc:
        return SuiteResult("hardy", 200, -1.0, f"route disagreement: {exc}")
    gs = np.array([pt.g for pt in curve])
    probs = np.array([[pt.prob_oo, pt.prob_ono, pt.prob_noo, pt.prob_nono] for pt in curve])
    closed = hardy.closed_form_shifts(gs, delta)
    for label, prob in zip(hardy.PATH_LABELS, probs.T):
        tol = 1e-12 * np.abs(closed[label]) + 1e-14 * np.maximum(gs, delta)
        margins = (tol - np.abs(prob * gs - closed[label])) / tol
        worst.update(float(np.min(margins)), f"{label} closed-form agreement")
    worst.update((1e-5 - abs(curve[0].prob_nono + 1.0)) / 1e-5, "weak limit -> -1")
    worst.update((1e-5 - abs(curve[-1].prob_nono - 0.2)) / 1e-5, "strong limit -> 1/5")
    worst.update((1e-5 - abs(curve[-1].prob_ono - 1.0)) / 1e-5, "strong ONO -> 1")
    worst.update((1e-5 - abs(curve[-1].prob_noo - 1.0)) / 1e-5, "strong NOO -> 1")
    increments = np.diff([pt.prob_nono for pt in curve])
    worst.update(float(np.min(increments)) / 1e-16, "strict monotonicity")
    return worst.result("hardy", 200)


def info_suite() -> SuiteResult:
    """Route agreement, monotonicity, limits, and the gain/extreme link."""
    worst = _Worst()
    delta = 1.0
    try:
        curve = infogain.info_curve(0.0, 10.0 * delta, 200, delta)
    except InternalConsistencyError as exc:
        return SuiteResult("info", 200, -1.0, f"route disagreement: {exc}")
    for pt in curve:
        rho_r, rho_1, rho_2 = infogain.reduced_device_states(pt.g, delta)
        via = von_neumann_entropy(rho_r) - 0.5 * (von_neumann_entropy(rho_1) + von_neumann_entropy(rho_2))
        worst.update((1e-12 - abs(via - pt.i_a)) / 1e-12, "entropy route agreement")
        if pt.i_a < 0.01 and pt.g > 0.0:
            worst.update((-0.9 * delta - pt.q_min) / delta, "low gain implies q_min < -0.9 Delta")
    worst.update(float(curve[0].i_a == 0.0) - 0.5, "zero coupling -> zero gain")
    worst.update((1e-5 - abs(curve[-1].i_a - 1.0)) / 1e-5, "strong limit -> 1 bit")
    increments = np.diff([pt.i_a for pt in curve])
    worst.update(float(np.min(increments)) / 1e-16, "strict monotonicity")
    return worst.result("info", 200)


_SUITES = {
    "schwarz": schwarz_suite,
    "bounds": bounds_suite,
    "oracle": oracle_suite,
    "hardy": hardy_suite,
    "info": info_suite,
}


def run_suites(which: str = "all") -> list[SuiteResult]:
    """Run one named suite, or all of them in declaration order."""
    if which == "all":
        return [fn() for fn in _SUITES.values()]
    if which not in _SUITES:
        raise ValidationError(
            f"unknown suite {which!r}; choose from {', '.join(SUITE_NAMES)} or all"
        )
    return [_SUITES[which]()]
