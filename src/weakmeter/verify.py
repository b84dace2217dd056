"""Randomized verification suites behind ``weakmeter verify``.

Each suite sweeps a fixed-seed family of random instances against the
package's proven invariants and reports a single worst margin, normalized
as the *fraction of tolerance remaining*: 1 means zero error, 0 means
exactly at tolerance, negative means violation.  On violation the instance
is serialized (scenario schema) so it can be replayed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermeroots

from . import hardy, infogain
from .bounds import check_weak_bounds, k_value, optimize_pps
from .errors import (
    InternalConsistencyError,
    OrthogonalSelectionError,
    ValidationError,
)
from .exactengine import (
    GaussianPointer,
    GridSpec,
    MeasurementSetup,
    exact_shifts,
    grid_shifts,
)
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
    """Keeps the minimum margin seen and the instance that produced it."""

    margin: float = np.inf
    label: str = ""
    instance: dict | None = None

    def update(self, margin: float, label: str, instance: dict | None = None) -> None:
        if margin < self.margin:
            self.margin = margin
            self.label = label
            self.instance = instance


def _random_selection(rng: np.random.Generator, dim: int):
    """A random (rho, pi) pair mixing purities and projector ranks."""
    rho = random_state(rng, dim).density() if rng.random() < 0.5 else random_density(rng, dim)
    rank = int(rng.integers(1, dim))
    pi = random_projector(rng, dim, rank)
    return rho, pi


def _instance_json(rho, pi, observable, g: float = 0.0, delta: float = 1.0) -> dict:
    setup = MeasurementSetup(observable, rho, pi, g, GaussianPointer(delta))
    return setup_to_json(setup)


def schwarz_suite() -> SuiteResult:
    """two_sided >= |A_w|^2 always; equality for rank-one selections.

    10^4 random (rho, Pi, A) triples at d <= 6 against C >= -1e-10, plus
    10^3 pure-state rank-one selections against |C| <= 1e-10.
    """
    rng = np.random.default_rng(20240811)
    worst = _Worst()
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
        worst.update((c + 1e-10) / 1e-10, "gap >= -1e-10", _instance_json(rho, pi, obs))
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
        worst.update((1e-10 - abs(c)) / 1e-10, "rank-one equality", _instance_json(rho, pi, obs))
        done += 1
    return SuiteResult(
        "schwarz",
        n_general + n_rank_one,
        worst.margin,
        f"worst check: {worst.label}",
        worst.instance if worst.margin < 0.0 else None,
    )


# Random starts of each extremal search in the bounds suite.
_SEARCH_RESTARTS = 4


def _weak_ceiling(levels: int) -> float:
    """z_K, the largest zero of the probabilists' Hermite polynomial He_K.

    As g -> 0 the displaced pointers Phi(q - g a_k) of K distinct levels span
    the first K Hermite functions, on which <q> is at most z_K * Delta:
    z_2 = 1, z_3 = sqrt(3), z_4 = sqrt(3 + sqrt(6)).
    """
    return float(np.max(hermeroots([0.0] * levels + [1.0])))


def bounds_suite() -> SuiteResult:
    """K positivity, weak-regime shift bounds, and the universal-bound margin.

    10^4 projector setups with g * Delta_p in (0, 1] against K >= -1e-10;
    2 * 10^3 weak-regime setups against |delta_q| <= Delta and
    |delta_p| <= Delta_p (relative 1e-6); 500 random Hermitian observables
    (d <= 4, spectrum in [-1, 1]) at g * Delta_p = 0.01, searched with
    :func:`optimize_pps`, against 1.02 times the K-level ceiling z_K * Delta.
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
        worst.update((k + 1e-10) / 1e-10, "K >= -1e-10", _instance_json(rho, pi, obs, g, delta))
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
        worst.update(min(m_q, m_p), "weak-regime shift bounds", setup_to_json(setup))
        done += 1

    g = 0.02 * delta  # u = 0.01
    for _ in range(500):
        dim = int(rng.integers(2, 5))
        obs = random_hermitian(rng, dim)
        search = optimize_pps(obs, g, pointer, restarts=_SEARCH_RESTARTS, seed=int(rng.integers(2**32)))
        top = max(search.optimizer_best_max, -search.optimizer_best_min)
        ceiling = _weak_ceiling(len(obs.eigenvalues)) * delta
        worst.update(
            (1.02 * ceiling - top) / ceiling, "optimized |delta_q| <= 1.02 * z_K * Delta",
            _instance_json(DensityOperator(np.eye(dim) / dim), random_projector(rng, dim, 1), obs, g, delta),
        )
    return SuiteResult(
        "bounds",
        12_500,
        worst.margin,
        f"worst check: {worst.label}",
        worst.instance if worst.margin < 0.0 else None,
    )


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
        setup = MeasurementSetup(obs, rho, pi, g, GaussianPointer(delta))
        try:
            ex = exact_shifts(setup)
            gr = grid_shifts(setup, GridSpec.for_setup(setup))
        except OrthogonalSelectionError:
            continue
        err = max(
            abs(ex.delta_q - gr.delta_q) / delta,
            abs(ex.delta_p - gr.delta_p) * 2.0 * delta,  # per delta_p = 1/(2 delta)
        )
        worst.update((1e-8 - err) / 1e-8, "engine vs grid", setup_to_json(setup))
        done += 1
    return SuiteResult(
        "oracle",
        200,
        worst.margin,
        f"worst check: {worst.label}",
        worst.instance if worst.margin < 0.0 else None,
    )


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
    return SuiteResult("hardy", 200, worst.margin, f"worst check: {worst.label}")


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
    return SuiteResult("info", 200, worst.margin, f"worst check: {worst.label}")


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
