"""System-level acceptance checks.

Eleven end-to-end criteria, one test each, every one printing a single
summary line (visible with ``pytest -s``; ``pytest -v`` shows the same
pass/fail verdict per test).  Tolerances and runtime ceilings are asserted
exactly as stated; nothing here is tuned to the implementation.
"""

import math
import time

import numpy as np
import pytest
from pytest import approx

from weakmeter import (
    GaussianPointer,
    HermitianObservable,
    MeasurementSetup,
    OrthogonalSelectionError,
    ProjectionOperator,
    StateVector,
    build_hardy,
    check_weak_bounds,
    closed_form_shifts,
    exact_shifts,
    hardy_probabilities,
    info_curve,
    information_gain,
    jozsa_shifts,
    k_value,
    optimize_pps,
    probability_curve,
    second_order_shifts,
    weak_moments,
)
from weakmeter.cli import main
from weakmeter.sampling import (
    random_density,
    random_hermitian,
    random_projector,
    random_projector_observable,
    random_state,
)
from weakmeter.verify import oracle_suite, schwarz_suite

POINTER = GaussianPointer(1.0)


def _which_path(dim=2):
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = 1.0
    return HermitianObservable.from_projector(ProjectionOperator(m))


def _line(num, text):
    print(f"criterion {num:02d} PASS  {text}")


def test_c01_closed_form_shifts_reproduced_at_all_couplings():
    """Exact engine vs the four closed-form arm shifts, relative 1e-12,
    across fifty couplings spanning the weak-to-projective range."""
    t0 = time.perf_counter()
    hardy = build_hardy()
    rho = hardy.preselection.density()
    observables = {
        label: HermitianObservable.from_projector(proj)
        for label, proj in hardy.operators.items()
    }
    worst = 0.0
    for g in np.geomspace(0.01, 10.0, 50):
        closed = closed_form_shifts(float(g), 1.0)
        for label, obs in observables.items():
            setup = MeasurementSetup(obs, rho, hardy.postselection, float(g), POINTER)
            got = exact_shifts(setup).delta_q
            worst = max(worst, abs(got - closed[label]) / max(abs(closed[label]), float(g)))
            assert got == approx(closed[label], rel=1e-12, abs=1e-14 * float(g))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(1, f"closed-form agreement, worst rel dev {worst:.1e}, {elapsed:.2f} s")


def test_c02_probability_curve_endpoints_and_monotonicity():
    """The inferred NONO occupation runs from -1 (weak) to 1/5 (strong),
    strictly monotonically, over a 200-point log sweep."""
    t0 = time.perf_counter()
    assert hardy_probabilities(1e-3).prob_nono == approx(-1.0, abs=1e-5)
    assert hardy_probabilities(10.0).prob_nono == approx(0.2, abs=1e-5)
    curve = probability_curve(1e-3, 10.0, 200)
    nono = [p.prob_nono for p in curve]
    climbs = [b - a for a, b in zip(nono, nono[1:])]
    assert min(climbs) > 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(2, f"endpoints -1 and 1/5 hit, min climb {min(climbs):.1e}, {elapsed:.2f} s")


def test_c03_grid_oracle_confirms_engine_on_random_setups():
    """200 random setups (d <= 4, g/Delta in [0.01, 10], mixed states and
    subspace postselections included): engine and quadrature oracle agree
    to 1e-8 in pointer-width units."""
    t0 = time.perf_counter()
    result = oracle_suite()
    elapsed = time.perf_counter() - t0
    assert result.instances == 200
    assert result.passed, result.violating_instance
    assert elapsed < 60.0
    _line(3, f"200 setups, margin {result.worst_margin:.3f} of 1e-8 budget, {elapsed:.2f} s")


def test_c04_schwarz_inequality_over_random_selections():
    """two_sided - |A_w|^2 >= -1e-10 on 10^4 general instances; equality
    to 1e-10 on 10^3 rank-one pure selections."""
    t0 = time.perf_counter()
    result = schwarz_suite()
    elapsed = time.perf_counter() - t0
    assert result.instances == 11_000
    assert result.passed, result.violating_instance
    assert elapsed < 30.0
    _line(4, f"11000 instances, margin {result.worst_margin:.3f}, {elapsed:.2f} s")


def test_c05_optimizer_attains_the_extreme_envelope():
    """The constructed selections hit both closed-form extremes (0.5%
    relative; 1% at g = 0.1) and never pass the envelope by 1e-9."""
    t0 = time.perf_counter()
    notes = []
    for g, rel_tol in ((0.1, 1e-2), (1.0, 5e-3), (10.0, 5e-3)):
        res = optimize_pps(_which_path(), g, POINTER, restarts=64, seed=0)
        assert res.optimizer_best_max == approx(res.q_max, rel=rel_tol)
        assert res.optimizer_best_min == approx(res.q_min, rel=rel_tol)
        assert res.optimizer_best_max <= res.q_max + 1e-9
        assert res.optimizer_best_min >= res.q_min - 1e-9
        gap = max(
            abs(res.optimizer_best_max - res.q_max) / abs(res.q_max),
            abs(res.optimizer_best_min - res.q_min) / abs(res.q_min),
        )
        notes.append(f"g={g:g}: {gap:.1e}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _line(5, f"envelope attained ({', '.join(notes)}), {elapsed:.2f} s")


def test_c06_weak_regime_bounds_hold_and_saturate():
    """10^4 random weak-regime setups (g Delta_p <= 0.01) never push the
    pointer past Delta_q or Delta_p (relative 1e-6); a deliberately
    saturated selection search reaches at least 0.98 Delta_q while still
    respecting the same ceiling."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240814)
    done = 0
    while done < 10_000:
        dim = int(rng.integers(2, 5))
        rho = (
            random_state(rng, dim).density()
            if rng.random() < 0.5
            else random_density(rng, dim)
        )
        pi = (
            random_state(rng, dim).projector()
            if rng.random() < 0.7
            else random_projector(rng, dim, int(rng.integers(1, dim)))
        )
        obs = (
            random_projector_observable(rng, dim)
            if rng.random() < 0.5
            else random_hermitian(rng, dim)
        )
        u = 10.0 ** rng.uniform(-4.0, -2.0)
        setup = MeasurementSetup(obs, rho, pi, 2.0 * u, POINTER)
        try:
            report = check_weak_bounds(setup)
        except OrthogonalSelectionError:
            continue
        assert report.satisfied, (report.observed_q, report.observed_p, u)
        done += 1

    # u = 8e-7: the envelope overhang u + u^2/4 stays under relative 1e-6,
    # so the bound can be met and saturated at the same time
    saturated = optimize_pps(
        _which_path(), 1.6e-6, POINTER, restarts=64, seed=0, min_postselect=1e-13
    )
    assert saturated.optimizer_best_max >= 0.98 * POINTER.delta
    assert saturated.optimizer_best_max <= POINTER.delta * (1.0 + 1e-6)
    assert abs(saturated.optimizer_best_min) <= POINTER.delta * (1.0 + 1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _line(
        6,
        f"10^4 setups bounded, saturation at {saturated.optimizer_best_max:.8f}, "
        f"{elapsed:.2f} s",
    )


def _closed_q_min(g):
    """Most negative which-path shift (g/2)(1 - 1/sqrt(1 - e^{-g^2/4})), Delta = 1."""
    return 0.5 * g * (1.0 - 1.0 / math.sqrt(-math.expm1(-g * g / 4.0)))


def _closed_i_a(g):
    """Which-path gain h2((1 + G)/2) in bits, G = e^{-g^2/8}, Delta = 1."""
    lam = 0.5 * (1.0 + math.exp(-g * g / 8.0))
    return -lam * math.log2(lam) - (1.0 - lam) * math.log2(1.0 - lam)


def _crossing(f, level, lo=1.0, hi=10.0):
    """Bisect the g in [lo, hi] where the increasing f(g) rises through level."""
    assert f(lo) < level < f(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if f(mid) > level:
            hi = mid
        else:
            lo = mid


def _extremal_which_path_shift(g):
    """Exact-engine shift of the which-path projector for the selection that
    attains q_min: pre (|1> + |2>)/sqrt2, post (cos t, sin t) with
    sin 2t = -G and cos 2t = -sqrt(1 - G^2)."""
    t = 0.5 * math.atan2(-math.exp(-g * g / 8.0), -math.sqrt(-math.expm1(-g * g / 4.0)))
    pre = StateVector(np.array([1.0, 1.0]) / math.sqrt(2.0)).density()
    post = StateVector(np.array([math.cos(t), math.sin(t)])).projector()
    return exact_shifts(MeasurementSetup(_which_path(), pre, post, g, POINTER)).delta_q


def test_c07_information_gain_against_anomalous_shifts():
    """Entropy route vs closed form to 1e-12 over a 200-point sweep;
    one full bit at g = 10 Delta; monotone gain; and the narrative
    pairing: under 0.01 bits the extreme shift still reaches past
    -0.9 Delta, and q_min > -0.01 Delta holds exactly when the gain
    exceeds I* ~ 0.99338 bits, the gain at the coupling g* ~ 4.3321 Delta
    where the closed-form q_min rises through -0.01 Delta.

    The gain passes 0.99 bits earlier, at g ~ 4.1380 Delta, so in the
    window 0.99 < I_a <= I* the shift is still at or below -0.01 Delta;
    the four sweep points there are checked against the exact engine on
    the explicit extremal selection, as is g* itself."""
    g_high = _crossing(_closed_i_a, 0.99)
    g_star = _crossing(_closed_q_min, -0.01)
    i_star = _closed_i_a(g_star)
    assert i_star == approx(0.993375256018973, abs=1e-9)
    assert g_star == approx(4.33213206027049, abs=1e-9)
    t0 = time.perf_counter()
    sweep = [information_gain(float(g)) for g in np.linspace(0.01, 10.0, 200)]
    for point in sweep:
        assert point.i_a == approx(_closed_i_a(point.g), abs=1e-12)
    assert information_gain(10.0).i_a == approx(1.0, abs=1e-5)
    gains = [p.i_a for p in sweep]
    assert all(b > a for a, b in zip(gains, gains[1:]))

    low = [p for p in sweep if p.i_a < 0.01]
    assert low and all(p.q_min < -0.9 for p in low)
    offenders = [
        (p.g, p.i_a, p.q_min)
        for p in sweep
        if p.g > 0.0 and (p.q_min > -0.01) != (p.i_a > i_star)
    ]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    if offenders:
        print(
            f"criterion 07 FAIL  {len(offenders)} sweep points break "
            f"q_min > -0.01 Delta <=> I_a > {i_star:.5f} bits"
        )
    assert not offenders, (
        f"points breaking q_min > -0.01 Delta <=> I_a > I* = {i_star!r} bits "
        f"(g, i_a, q_min): {offenders}"
    )

    window = [p for p in sweep if 0.99 < p.i_a <= i_star]
    assert len(window) == 4 and all(g_high < p.g < g_star for p in window)
    at_star = information_gain(g_star)
    assert at_star.q_min == approx(-0.01, rel=1e-12)
    for g, q_min in [(g_star, at_star.q_min)] + [(p.g, p.q_min) for p in window]:
        assert _extremal_which_path_shift(g) == approx(q_min, rel=1e-12)
    _line(
        7,
        f"dual routes, monotonicity, low-gain pairing and q_min > -0.01 Delta "
        f"<=> I_a > I* = {i_star:.5f} bits (window {g_high:.4f} < g <= "
        f"{g_star:.4f} Delta has 0.99 < I_a <= I*), {elapsed:.2f} s",
    )


def test_c08_approximation_hierarchy_and_cubic_residuals():
    """On the NONO setup at g Delta_p <= 0.05 the second-order shift beats
    the first-order one, and both residuals drop eightfold (within factor
    1.3) when g halves."""
    t0 = time.perf_counter()
    hardy = build_hardy()
    obs = HermitianObservable.from_projector(hardy.operators["NONO"])
    rho = hardy.preselection.density()
    moments = weak_moments(rho, hardy.postselection, obs)

    def residuals(g):
        exact = exact_shifts(
            MeasurementSetup(obs, rho, hardy.postselection, g, POINTER)
        ).delta_q
        first, _ = jozsa_shifts(moments.weak_value, g, POINTER)
        second, _ = second_order_shifts(moments, g, POINTER)
        assert abs(exact - second) < abs(exact - first)
        return abs(exact - first), abs(exact - second)

    ratios = []
    for g in (0.1, 0.05):
        r1a, r2a = residuals(g)
        r1b, r2b = residuals(g / 2.0)
        ratios += [r1a / r1b, r2a / r2b]
    for ratio in ratios:
        assert 8.0 / 1.3 <= ratio <= 8.0 * 1.3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _line(8, f"halving ratios {', '.join(f'{r:.2f}' for r in ratios)}, {elapsed:.2f} s")


def test_c09_positivity_factor_on_random_projector_setups():
    """K = 1 + (g Delta_p)^2 (two_sided - Re A_w) >= -1e-10 on 10^4 random
    projector setups with g Delta_p <= 1."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240815)
    worst = np.inf
    done = 0
    while done < 10_000:
        dim = int(rng.integers(2, 6))
        obs = random_projector_observable(rng, dim)
        rho = (
            random_state(rng, dim).density()
            if rng.random() < 0.5
            else random_density(rng, dim)
        )
        pi = random_projector(rng, dim, int(rng.integers(1, dim)))
        try:
            moments = weak_moments(rho, pi, obs)
        except OrthogonalSelectionError:
            continue
        k = k_value(moments, 2.0 * rng.uniform(0.0, 1.0), POINTER)
        worst = min(worst, k)
        assert k >= -1e-10
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _line(9, f"10^4 K values, smallest {worst:.3e}, {elapsed:.2f} s")


def test_c10_cli_outputs_are_byte_deterministic(tmp_path):
    """Same seed, same bytes: the sweep CSV and the optimizer report."""
    sweep_a, sweep_b = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["hardy-sweep", "--points", "50", "--out", str(sweep_a)]) == 0
    assert main(["hardy-sweep", "--points", "50", "--out", str(sweep_b)]) == 0
    assert sweep_a.read_bytes() == sweep_b.read_bytes()

    opt_a, opt_b = tmp_path / "o1.txt", tmp_path / "o2.txt"
    args = ["bounds-optimize", "--g", "1.0", "--restarts", "6", "--seed", "0", "--out"]
    assert main(args + [str(opt_a)]) == 0
    assert main(args + [str(opt_b)]) == 0
    assert opt_a.read_bytes() == opt_b.read_bytes()

    # and the CSV carries full-precision doubles
    for line in sweep_a.read_text().splitlines()[2:]:
        for token in line.split(","):
            assert format(float(token), ".17g") == token
    _line(10, "sweep CSV and optimizer report byte-identical across reruns")


def _closed_prob_nono(g):
    """Inferred NO-NO probability (1 - 2G)/(5 - 4G), G = e^{-g^2/8}, Delta = 1."""
    overlap = math.exp(-g * g / 8.0)
    return (1.0 - 2.0 * overlap) / (5.0 - 4.0 * overlap)


def test_c11_negative_probability_only_while_the_gain_is_small():
    """P_NONO < 0 holds exactly when I_a < I_0, both ways, on every point of
    the default hardy-sweep and info-sweep grids and at g_0 (1 -/+ 1e-6).
    g_0 is where the closed-form P_NONO rises through zero, found by
    bisection, and I_0 = I_a(g_0) is the program's gain there; no threshold
    is typed in.  The default grids step 0.05-0.1 Delta near g_0, so the two
    points beside it are what would catch a wrong I_0."""
    t0 = time.perf_counter()
    g0 = _crossing(_closed_prob_nono, 0.0)
    i0 = information_gain(g0).i_a
    # cross-checks of the bisection, not thresholds: G(g_0) = 1/2, I_0 = h2(3/4)
    assert g0 == approx(math.sqrt(8.0 * math.log(2.0)), rel=1e-15)
    assert i0 == approx(2.0 - 0.75 * math.log2(3.0), rel=1e-15)

    points = [(p.g, p.prob_nono, information_gain(p.g).i_a) for p in probability_curve(1e-3, 10.0, 200)]
    points += [(p.g, hardy_probabilities(p.g).prob_nono, p.i_a) for p in info_curve(0.01, 10.0, 200)]
    beside = [g0 * (1.0 - 1e-6), g0 * (1.0 + 1e-6)]
    points += [(g, hardy_probabilities(g).prob_nono, information_gain(g).i_a) for g in beside]
    assert len(points) == 402
    assert points[-2][1] < 0.0 < points[-1][1]
    negative = [p for p in points if p[1] < 0.0]
    assert 0 < len(negative) < len(points)
    offenders = [p for p in points if (p[1] < 0.0) != (p[2] < i0)]
    elapsed = time.perf_counter() - t0
    assert not offenders, f"points breaking P_NONO < 0 <=> I_a < I_0 = {i0!r} (g, P, I_a): {offenders}"
    assert elapsed < 5.0
    _line(
        11,
        f"P_NONO < 0 <=> I_a < I_0 = {i0:.10f} bits on 402 points "
        f"({len(negative)} negative), g_0 = {g0:.6f} Delta, {elapsed:.2f} s",
    )
