"""Exact pointer statistics and the independent grid oracle.

The engine computes postselected first moments of the pointer from
Gaussian overlap matrix elements in closed form; the oracle builds the
final pointer wavefunction on a grid and integrates.  The two routes share
no code beyond the setup container, so agreement is a real check.
"""

import gc
import json
import tracemalloc
import warnings
import weakref
from importlib import resources

import mpmath
import numpy as np
import pytest
from pytest import approx
from scipy.integrate import quad

from weakmeter import (
    DensityOperator,
    GaussianPointer,
    GridSpec,
    HermitianObservable,
    MeasurementOutcome,
    MeasurementSetup,
    OrthogonalSelectionError,
    ProjectionOperator,
    StateVector,
    ValidationError,
    check_weak_bounds,
    exact_shifts,
    grid_shifts,
    jozsa_shifts,
    parse_scenario,
    schwarz_gap,
    second_order_shifts,
    weak_moments,
)
from weakmeter.exactengine import (
    MAX_GRID_POINTS,
    _column_sums,
    _overlaps,
    _pointer_sums,
    _pointer_terms,
    _selection_amplitudes,
)
from weakmeter.bounds import _envelope_curve
from weakmeter.hardy import build_hardy, closed_form_shifts, hardy_probabilities, probability_curve
from weakmeter.infogain import information_gain, reduced_device_states
from weakmeter.qcore import von_neumann_entropy
from weakmeter.sampling import (
    random_density,
    random_hermitian,
    random_projector,
    random_projector_observable,
)

PATH = HermitianObservable(np.diag([1.0, 0.0]))
EPS = np.finfo(float).eps


def _pointer_wave(q, delta):
    return (2.0 * np.pi * delta**2) ** -0.25 * np.exp(-(q**2) / (4.0 * delta**2))


def _quad_elements(a, a_prime, g, delta):
    """Overlap elements by brute-force quadrature of the shifted Gaussians."""
    lim = 12.0 * delta + g * (abs(a) + abs(a_prime))

    def pair(q):
        return _pointer_wave(q - g * a, delta) * _pointer_wave(q - g * a_prime, delta)

    s = quad(pair, -lim, lim, epsabs=1e-13)[0]
    q_elem = quad(lambda q: q * pair(q), -lim, lim, epsabs=1e-13)[0]
    # p acts as -i d/dq on the right factor; the integrand stays real
    p_imag = quad(
        lambda q: pair(q) * (q - g * a_prime) / (2.0 * delta**2), -lim, lim, epsabs=1e-13
    )[0]
    return s, q_elem, 1j * p_imag


def overlap_elements(a, a_prime, g, delta):
    """Matrix elements of 1, q and p between two displaced pointer components,
    read off the engine's kernels e = G - 1, qker and pker at ratio g / delta:

        <Phi_a | Phi_a'>     = G = 1 + e
        <Phi_a | q | Phi_a'> = g (a + a') / 2 * G
        <Phi_a | p | Phi_a'> = i g (a - a') / (4 delta^2) * G
    """
    spread = abs(a - a_prime)
    e = _overlaps(g / delta, np.array([spread]), spread)[0]
    qker, pker = (a + a_prime) / 2.0 * e, (a - a_prime) / 4.0 * e
    s = 1.0 + e
    q_elem = g * ((a + a_prime) / 2.0 + qker)
    p_elem = 1j * (g / delta**2) * ((a - a_prime) / 4.0 + pker)
    return s, q_elem, p_elem


class TestOverlapElements:
    @pytest.mark.parametrize(
        "a,a_prime,g,delta",
        [(1.0, 0.0, 1.0, 1.0), (0.3, -0.7, 2.0, 0.5), (2.0, 2.0, 0.8, 1.3)],
    )
    def test_against_quadrature(self, a, a_prime, g, delta):
        s, q_elem, p_elem = overlap_elements(a, a_prime, g, delta)
        s_ref, q_ref, p_ref = _quad_elements(a, a_prime, g, delta)
        assert s == approx(s_ref, abs=1e-10)
        assert q_elem == approx(q_ref, abs=1e-10)
        assert p_elem == approx(p_ref, abs=1e-10)

    def test_unit_separation_values(self):
        # exp(-1/8) and its halves, from a 40-digit evaluation
        s, q_elem, p_elem = overlap_elements(1.0, 0.0, 1.0, 1.0)
        assert s == approx(0.88249690258459540, rel=1e-14)
        assert q_elem == approx(0.44124845129229770, rel=1e-14)
        assert p_elem == approx(0.22062422564614885j, rel=1e-14)

    def test_diagonal_is_trivial(self):
        s, q_elem, p_elem = overlap_elements(0.7, 0.7, 3.0, 0.5)
        assert s == 1.0
        assert q_elem == approx(3.0 * 0.7, rel=1e-14)
        assert p_elem == 0.0

    def test_exchange_symmetry(self):
        s, q_elem, p_elem = overlap_elements(1.2, -0.4, 0.9, 1.1)
        s2, q2, p2 = overlap_elements(-0.4, 1.2, 0.9, 1.1)
        assert s2 == approx(s, rel=1e-15)
        assert q2 == approx(q_elem, rel=1e-15)
        assert p2 == approx(np.conj(p_elem), rel=1e-15)


class TestExactShifts:
    def test_identity_observable_translates_exactly(self):
        """A = 1 shifts every selected pointer by exactly g, bit for bit."""
        obs = HermitianObservable(np.eye(3))
        setup = MeasurementSetup(
            obs,
            StateVector.normalized([1.0, 1.0j, -0.5]).density(),
            StateVector.normalized([0.2, 0.4, 1.0]).projector(),
            g=1.7,
            pointer=GaussianPointer(0.9),
        )
        out = exact_shifts(setup)
        assert out.delta_q == 1.7
        assert out.delta_p == 0.0

    def test_zero_coupling_leaves_pointer_alone(self):
        setup = MeasurementSetup(
            PATH,
            StateVector.normalized([1.0, 1.0]).density(),
            StateVector.normalized([0.6, -0.8]).projector(),
            g=0.0,
            pointer=GaussianPointer(1.0),
        )
        out = exact_shifts(setup)
        assert out.delta_q == 0.0
        assert out.delta_p == 0.0
        prob = weak_moments(setup.preselection, setup.postselection, setup.observable).postselect_prob
        assert out.postselect_prob == approx(prob, rel=1e-12)

    @pytest.mark.parametrize("g", [1e-3, 0.02, 1.0])
    def test_orthogonal_selection_midpoint(self, g):
        """With <f|i> = 0 and symmetric amplitudes the exact shift is g/2 at
        every coupling; the tiny selected norm ~ g^2/16 must not erode it."""
        setup = MeasurementSetup(
            PATH,
            StateVector.normalized([1.0, 1.0]).density(),
            StateVector.normalized([1.0, -1.0]).projector(),
            g=g,
            pointer=GaussianPointer(1.0),
        )
        out = exact_shifts(setup)
        assert out.delta_q == approx(g / 2.0, rel=1e-12)
        assert out.delta_p == approx(0.0, abs=1e-15 * g)

    def test_fully_orthogonal_raises(self):
        # at g = 1e-8 the selected norm ~ 6e-18 sits below the 1e-14 floor
        setup = MeasurementSetup(
            PATH,
            StateVector.normalized([1.0, 1.0]).density(),
            StateVector.normalized([1.0, -1.0]).projector(),
            g=1e-8,
            pointer=GaussianPointer(1.0),
        )
        with pytest.raises(OrthogonalSelectionError):
            exact_shifts(setup)

    def test_weak_limit_approaches_first_order(self):
        rho = StateVector.normalized([1.0, 1.0]).density()
        pi = StateVector.normalized([0.6, -0.8]).projector()
        m = weak_moments(rho, pi, PATH)
        pointer = GaussianPointer(1.0)
        setup = MeasurementSetup(PATH, rho, pi, 1e-4, pointer)
        out = exact_shifts(setup)
        dq1, dp1 = jozsa_shifts(m.weak_value, 1e-4, pointer)
        assert out.delta_q == approx(dq1, rel=1e-6)
        assert out.delta_p == approx(dp1, abs=1e-12)


class TestSelectionFamilies:
    def test_rank2_selection_orthogonal_at_every_coupling(self):
        """A pure state inside an A-invariant subspace never reaches a
        rank-2 projector on its complement, whatever the coupling: the
        engine must report an orthogonal selection, not an internal fault."""
        rng = np.random.default_rng(4242)
        for _ in range(200):
            d = int(rng.integers(3, 7))
            m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            basis = np.linalg.qr(m)[0]
            a_mat = (basis * rng.uniform(-1.0, 1.0, d)) @ basis.conj().T
            split = int(rng.integers(1, d - 1))  # A-invariant block, then >= 2 columns
            psi = basis[:, :split] @ (rng.normal(size=split) + 1j * rng.normal(size=split))
            psi /= np.linalg.norm(psi)
            comp = basis[:, split:split + 2]
            pi = comp @ comp.conj().T
            setup = MeasurementSetup(
                HermitianObservable((a_mat + a_mat.conj().T) / 2),
                DensityOperator(np.outer(psi, psi.conj())),
                ProjectionOperator((pi + pi.conj().T) / 2),
                g=10.0 ** rng.uniform(-3.0, 1.0),
                pointer=GaussianPointer(float(rng.choice([0.5, 1.0, 2.0]))),
            )
            with pytest.raises(OrthogonalSelectionError):
                exact_shifts(setup)

    def test_factored_batch_matches_single_couplings(self):
        """A 1-d ratio gives one result per coupling, bit for bit the scalar
        calls: K = 2..8, ratios from 1e-300 to 1e300 and levels up to
        +/-1e300, with no floating-point warning on the way."""
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        cases = [(
            HermitianObservable((m + m.conj().T) / 2),
            DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1])),
            ProjectionOperator(np.diag([1.0, 1.0, 0.0, 0.0])),
        )]
        for dim in range(2, 9):
            basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
            levels = np.linspace(-1.0, 1.0, dim) + rng.uniform(-0.2, 0.2, dim) / dim
            rho, pi = random_density(rng, dim, dim - 1), random_projector(rng, dim, max(1, dim // 2))
            for scale in (1.0, 1e300):
                cases.append((HermitianObservable((basis * (scale * levels)) @ basis.conj().T), rho, pi))
        ratios = np.concatenate([[1e-300], np.geomspace(1e-3, 30.0, 9), [1.0, 1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for obs, rho, pi in cases:
                terms = _selection_amplitudes(rho, pi, obs).terms
                *batch, batch_resid = _pointer_sums(terms, ratios)
                assert batch_resid.shape == ratios.shape and np.all(batch_resid < 1e-13)
                for i, r in enumerate(ratios.tolist()):
                    single = _pointer_sums(terms, r)
                    assert all(type(x) is float for x in single[:3])
                    assert [float(b[i]) for b in (*batch, batch_resid)] == [float(x) for x in single]
        assert sorted({len(obs.eigenvalues) for obs, _, _ in cases}) == list(range(2, 9))

    def test_operators_are_decomposed_once(self, monkeypatch):
        """rho is decomposed when it is built and Pi on its first selection;
        after that, no call that reads the selection runs an eigensolver."""
        rng = np.random.default_rng(13)
        rho, pi = random_density(rng, 4, 2), random_projector(rng, 4, 2)
        setup = MeasurementSetup(random_projector_observable(rng, 4), rho, pi, 0.01, GaussianPointer(1.0))
        exact_shifts(setup)

        def decomposed(*args, **kwargs):
            raise AssertionError("decomposed after construction")

        monkeypatch.setattr(np.linalg, "eigh", decomposed)
        monkeypatch.setattr(np.linalg, "eigvalsh", decomposed)
        exact_shifts(setup)
        weak_moments(rho, pi, setup.observable)
        schwarz_gap(rho, pi, setup.observable)
        check_weak_bounds(setup)
        von_neumann_entropy(rho)
        assert pi.bras.shape == (2, 4)


class TestSelectionCache:
    """A selection is factored once per (rho, Pi, A) objects and shared by
    every coupling; the cache must change no result and hold no selection
    for long."""

    @staticmethod
    def _selection(seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        return HermitianObservable((m + m.conj().T) / 2), random_density(rng, 4, 2), random_projector(rng, 4, 2)

    def test_sweep_is_bit_identical_to_fresh_operators(self):
        obs, rho, pi = self._selection(31)
        pointer = GaussianPointer(0.7)
        # _overlaps clips g / delta at 1e150 / span: couplings a few ulp either
        # side of that clip, then two whose products with the spreads can overflow
        span = float(obs.eigenvalues[-1] - obs.eigenvalues[0])
        edge = 1e150 * 0.7 / span * (1.0 + 2.3e-16 * np.arange(-4, 5))
        assert 0 < np.count_nonzero(edge / 0.7 <= 1e150 / span) < len(edge)
        gs = np.concatenate([np.geomspace(1e-3, 10.0, 200), edge, [1e299, 1e306]])
        misses = _selection_amplitudes.cache_info().misses
        cached = [exact_shifts(MeasurementSetup(obs, rho, pi, float(g), pointer)) for g in gs]
        fresh = [
            exact_shifts(MeasurementSetup(
                HermitianObservable(obs.matrix), DensityOperator(rho.matrix),
                ProjectionOperator(pi.matrix), float(g), pointer,
            ))
            for g in gs
        ]
        assert _selection_amplitudes.cache_info().misses == misses + 1 + len(gs)
        assert cached == fresh
        # and equal to the uncached contraction that hardy and the optimizer use
        c, eigs = _selection_amplitudes(rho, pi, obs).amplitudes, obs.eigenvalues
        terms = _pointer_terms(c, eigs, _column_sums(c, eigs))
        n_val, q_num, p_num, _ = _pointer_sums(terms, gs / 0.7)
        assert [out.delta_q for out in cached] == (gs * (q_num / n_val)).tolist()
        assert [out.delta_p for out in cached] == ((gs / 0.7) * (p_num / n_val) / 0.7).tolist()
        assert [out.postselect_prob for out in cached] == np.minimum(n_val, 1.0).tolist()

    def test_unguarded_branch_runs_no_guard(self, monkeypatch):
        """exact_shifts on a cached selection forms G - 1 without errstate,
        abs or a numpy clip: its float g / delta is clipped by Python's min."""
        obs, rho, pi = self._selection(34)
        pointer = GaussianPointer(0.7)
        before = exact_shifts(MeasurementSetup(obs, rho, pi, 0.7, pointer))

        def guard(*args, **kwargs):
            raise AssertionError("overflow guard on the unguarded branch")

        for name in ("errstate", "abs", "minimum"):
            monkeypatch.setattr(np, name, guard)
        assert exact_shifts(MeasurementSetup(obs, rho, pi, 0.7, pointer)) == before

    def test_cached_arrays_refuse_writes(self):
        obs, rho, pi = self._selection(32)
        sel = _selection_amplitudes(rho, pi, obs)
        for array in (sel.amplitudes, sel.terms.weights, sel.terms.spread):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0

    def test_cache_is_bounded_and_releases_operators(self):
        obs, rho, pi = self._selection(33)
        first = DensityOperator(rho.matrix)
        exact_shifts(MeasurementSetup(obs, first, pi, 0.5, GaussianPointer(1.0)))
        alive = weakref.ref(first)
        del first
        for _ in range(10_000):
            _selection_amplitudes(DensityOperator(rho.matrix), pi, obs)
        gc.collect()
        info = _selection_amplitudes.cache_info()
        assert info.currsize <= info.maxsize
        assert alive() is None


def _dimensionless(g, delta):
    """Every closed-form and which-path output at (g, delta) that depends on
    g / delta alone, as the bits of one float array."""
    closed = closed_form_shifts(g, delta)
    point = hardy_probabilities(g, delta)
    curve = probability_curve(g / 2.0, g, 2, delta, "lin")
    gain = information_gain(g, delta)
    values = [
        *(closed[label] / g for label in ("OO", "ONO", "NOO", "NONO")),
        point.prob_oo, point.prob_ono, point.prob_noo, point.prob_nono,
        *(p for row in curve for p in (row.prob_oo, row.prob_ono, row.prob_noo, row.prob_nono)),
        gain.lam, gain.i_a, gain.q_min / g,
        *np.concatenate([rho.matrix.view(float).ravel() for rho in reduced_device_states(g, delta)]),
        *(_envelope_curve(np.array([g]), delta)[:, 0] / g),
    ]
    return np.array(values, dtype=float).view(np.uint64)


class TestSaturation:
    @pytest.mark.parametrize(
        "g,delta",
        [(1e150 * (1.0 - 4.0 * EPS), 1.0), (1e150 * (1.0 + 4.0 * EPS), 1.0), (1e200, 1.0), (1e308, 1e-300)],
        ids=["1e150 (1 - 4 eps)", "1e150 (1 + 4 eps)", "1e200", "overflowing quotient"],
    )
    def test_one_saturation_rule_at_every_entry(self, g, delta):
        """Just under the 1e150 clip of g / delta, just over it, far past it
        and where the quotient overflows, every closed form and which-path
        output equals its value at g / delta = 1e150 bit for bit, with no
        floating-point warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(_dimensionless(g, delta), _dimensionless(1e150, 1.0))


class TestExtremeScales:
    @pytest.mark.parametrize(
        "delta,expected",
        [(1e200, -0.15), (1e-200, 0.018)],
        ids=["wide pointer: g Re A_w", "narrow pointer: projective mean"],
    )
    def test_extreme_pointer_widths(self, delta, expected):
        """Only g / delta enters the kernels, so no power of delta can
        overflow: a very wide pointer reads g Re A_w = -0.15, a very narrow
        one the projective mean g sum_k a_k |c_k|^2 / sum_k |c_k|^2 = 0.018."""
        text = resources.files("weakmeter").joinpath("scenarios", "anomalous_qubit.json").read_text()
        setup, _ = parse_scenario({**json.loads(text), "delta": delta})
        assert exact_shifts(setup).delta_q == approx(expected, rel=1e-12)


    def test_ratios_above_1e300_keep_their_value(self):
        """Levels 1e-300 apart at g = 1e305 delta are 1e5 widths apart, as
        levels 1 apart at g = 1e5 delta: the pointer resolves both the same
        way, with N = 0.5 and delta_q = g * 0.64 e-300 = 64000."""
        pre = StateVector.normalized([1.0, 1.0]).density()
        post = StateVector.normalized([0.6, -0.8]).projector()
        tiny = exact_shifts(MeasurementSetup(
            HermitianObservable(np.diag([0.0, 1e-300])), pre, post, 1e305, GaussianPointer(1.0)
        ))
        unit = exact_shifts(MeasurementSetup(
            HermitianObservable(np.diag([0.0, 1.0])), pre, post, 1e5, GaussianPointer(1.0)
        ))
        assert tiny.postselect_prob == approx(0.5, rel=1e-15)
        assert tiny.postselect_prob == unit.postselect_prob
        assert tiny.delta_q == approx(64000.0, rel=1e-14)
        assert tiny.delta_q == approx(unit.delta_q, rel=1e-14)


def _near_orthogonal_setups(family, rng, n0=1e-9):
    """Selections with tr(Pi rho) ~ 1e-9 on A = diag(a), d = 4."""
    d = 4
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    basis = np.linalg.qr(m)[0]
    psi, chi, perp = basis[:, 0], basis[:, 1], basis[:, 2]
    if family == "pure":
        theta = np.arcsin(np.sqrt(n0))
        rho = np.outer(psi, psi.conj())
        f = np.cos(theta) * perp + np.sin(theta) * psi
    elif family == "two-eigenvector":
        w = rng.uniform(0.2, 0.8)
        rho = w * np.outer(psi, psi.conj()) + (1.0 - w) * np.outer(chi, chi.conj())
        theta = np.arcsin(np.sqrt(2.0 * n0))
        f = np.cos(theta) * perp + np.sin(theta) * (psi + chi) / np.sqrt(2.0)
    else:  # near-pure: a pure state with a 1e-9 admixture of white noise
        eta = n0
        rho = (1.0 - eta) * np.outer(psi, psi.conj()) + eta * np.eye(d) / d
        theta = np.arcsin(np.sqrt(n0 / 2.0))
        f = np.cos(theta) * perp + np.sin(theta) * psi
    a = np.sort(rng.uniform(-1.0, 1.0, d))
    return np.diag(a), (rho + rho.conj().T) / 2, np.outer(f, f.conj())


def _mp_shifts(a, rho, pi, g, delta):
    """delta_q, delta_p and N at 50 digits from the same double inputs, A = diag(a):
    w(k, l) = Pi_kl rho_lk, G = exp(-g^2 (a_k - a_l)^2 / (8 delta^2)),
    delta_p = i g sum w (a_k - a_l) / (4 delta^2) G / N."""
    with mpmath.workdps(50):
        num_q = num_p = den = mpmath.mpf(0)
        g_mp, delta_mp = mpmath.mpf(g), mpmath.mpf(delta)
        for k in range(len(a)):
            for l in range(len(a)):
                w = mpmath.mpc(complex(pi[k, l])) * mpmath.mpc(complex(rho[l, k]))
                ak, al = mpmath.mpf(float(a[k])), mpmath.mpf(float(a[l]))
                overlap = mpmath.exp(-((g_mp * (ak - al)) ** 2) / (8 * delta_mp**2))
                den += w * overlap
                num_q += w * (ak + al) / 2 * overlap
                num_p += w * 1j * (ak - al) / (4 * delta_mp**2) * overlap
        return float((g_mp * num_q / den).real), float((g_mp * num_p / den).real), float(den.real)


def _near_orthogonal_outcomes(family, g, delta=1.0):
    """(setup amplitudes, engine outcome, 50-digit (delta_q, delta_p, N)) for
    the 20 draws of one family, all at coupling g."""
    rng = np.random.default_rng({"pure": 11, "two-eigenvector": 12, "near-pure": 13}[family])
    for _ in range(20):
        a_mat, rho, pi = _near_orthogonal_setups(family, rng)
        obs, rho_op, pi_op = HermitianObservable(a_mat), DensityOperator(rho), ProjectionOperator(pi)
        out = exact_shifts(MeasurementSetup(obs, rho_op, pi_op, g, GaussianPointer(delta)))
        c = _selection_amplitudes(rho_op, pi_op, obs).amplitudes
        yield obs.eigenvalues, c, out, _mp_shifts(np.diag(a_mat).real, rho, pi, g, delta)


@pytest.mark.parametrize("family", ["pure", "two-eigenvector", "near-pure"])
def test_delta_q_keeps_relative_precision_near_orthogonality(family):
    """At g = 1e-4 delta and N ~ 1e-9 the relative errors of delta_q, delta_p
    and N against a 50-digit evaluation stay within 16 eps / N, the rounding
    of N itself."""
    eps = 2.2e-16
    for _, _, out, (dq, dp, n_ref) in _near_orthogonal_outcomes(family, 1e-4):
        assert 1e-11 < n_ref < 1e-8
        got = (out.delta_q, out.delta_p, out.postselect_prob)
        for name, value, ref in zip(("delta_q", "delta_p", "N"), got, (dq, dp, n_ref)):
            err = abs(value - ref) / abs(ref)
            assert err <= 16.0 * eps / n_ref, (name, err * n_ref / eps, ref)


@pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("family", ["pure", "two-eigenvector", "near-pure"])
def test_shifts_keep_precision_at_moderate_coupling(family, g):
    """Once g ~ delta the kernel sums themselves cancel, and the error scale
    is that of the extremal selections, eps (|S0| ||c||_1 + |c|^T h |c|) / N
    per column of amplitudes, plus eps ||c||_1^2 / N for amplitudes factored
    from matrices.  N, and delta_q and delta_p relative to their size plus
    their natural scale (g max|a| and g max|a| / (2 delta^2)), stay within 4
    units of it against a 50-digit evaluation; the worst before the kernel
    coefficients were folded into the weights was 1.3 units."""
    eps, delta = 2.2e-16, 1.0
    for eigs, c, out, (dq, dp, n_ref) in _near_orthogonal_outcomes(family, g, delta):
        mass, s0 = np.abs(c).sum(axis=0), np.abs(c.sum(axis=0))
        h = -np.expm1(-((g / delta) * (eigs[:, None] - eigs[None, :])) ** 2 / 8.0)
        scale = s0 @ mass + np.einsum("kr,kl,lr->", np.abs(c), h, np.abs(c)) + mass @ mass
        unit = 4.0 * eps * scale / n_ref
        top = float(np.max(np.abs(eigs)))
        assert abs(out.postselect_prob - n_ref) <= unit * n_ref
        assert abs(out.delta_q - dq) <= unit * (g * top + abs(dq)), (dq, out.delta_q)
        assert abs(out.delta_p - dp) <= unit * (g * top / (2.0 * delta**2) + abs(dp)), (dp, out.delta_p)


def _mp_moments(a, rho, pi):
    """p = tr(Pi rho), A_w and two_sided at 50 digits from the same double inputs."""
    with mpmath.workdps(50):
        a, rho, pi = (mpmath.matrix([[mpmath.mpc(complex(e)) for e in row] for row in m]) for m in (a, rho, pi))
        a_rho = a * rho
        traces = [mpmath.fsum(pi[k, l] * x[l, k] for k in range(pi.rows) for l in range(pi.rows))
                  for x in (rho, a_rho, a_rho * a)]  # tr(Pi X)
        return float(traces[0].real), complex(traces[1] / traces[0]), float((traces[2] / traces[0]).real)


@pytest.mark.parametrize("family", ["pure", "two-eigenvector", "near-pure"])
def test_weak_moments_keep_relative_precision_near_orthogonality(family):
    """p, A_w and two_sided against a 50-digit evaluation for tr(Pi rho) from
    1e-4 down to 1e-12.  eigh factors rho and Pi with a backward error of a
    few eps, so p carries an absolute error of a few eps and the relative
    error 8 eps / p bounds all three: A_w and two_sided inherit p's through
    the division."""
    eps = 2.2e-16
    rng = np.random.default_rng({"pure": 21, "two-eigenvector": 22, "near-pure": 23}[family])
    for n0 in (1e-4, 1e-8, 1e-12):
        for _ in range(20):
            a_mat, rho, pi = _near_orthogonal_setups(family, rng, n0)
            m = weak_moments(DensityOperator(rho), ProjectionOperator(pi), HermitianObservable(a_mat))
            want = _mp_moments(a_mat, rho, pi)
            got = (m.postselect_prob, m.weak_value.as_complex, m.two_sided)
            for name, value, ref in zip(("p", "A_w", "two_sided"), got, want):
                assert abs(value - ref) <= 8.0 * eps / want[0] * abs(ref), (name, n0, value, ref)


class TestResidualOrders:
    def test_third_order_residuals_on_interference_setup(self):
        """Exact minus first order and exact minus second order both shrink
        eightfold when g is halved: the leading residual is cubic."""
        hardy = build_hardy()
        obs = HermitianObservable.from_projector(hardy.operators["NONO"])
        rho = hardy.preselection.density()
        pointer = GaussianPointer(1.0)
        m = weak_moments(rho, hardy.postselection, obs)

        def residuals(g):
            out = exact_shifts(MeasurementSetup(obs, rho, hardy.postselection, g, pointer))
            dq1, _ = jozsa_shifts(m.weak_value, g, pointer)
            dq2, _ = second_order_shifts(m, g, pointer)
            return out.delta_q - dq1, out.delta_q - dq2

        r1a, r2a = residuals(0.1)
        r1b, r2b = residuals(0.05)
        assert r1a / r1b == approx(8.0, rel=0.3)
        assert r2a / r2b == approx(8.0, rel=0.3)


class TestGridOracle:
    @pytest.mark.parametrize("g", [0.1, 1.0, 4.0])
    def test_interference_setup_both_routes(self, g):
        hardy = build_hardy()
        obs = HermitianObservable.from_projector(hardy.operators["NONO"])
        setup = MeasurementSetup(
            obs, hardy.preselection.density(), hardy.postselection, g, GaussianPointer(1.0)
        )
        exact = exact_shifts(setup)
        oracle = grid_shifts(setup, GridSpec(GridSpec.for_setup(setup).half_width, 8192))
        assert oracle.delta_q == approx(exact.delta_q, abs=1e-8)
        assert oracle.delta_p == approx(exact.delta_p, abs=1e-8)
        assert oracle.postselect_prob == approx(exact.postselect_prob, abs=1e-8)

    def test_mixed_state_rank_two_postselection(self):
        """The ensemble branch of the oracle against the trace branch of the
        engine, on a setup where neither route can take a pure shortcut."""
        rng = np.random.default_rng(77)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        obs = HermitianObservable((h + h.conj().T) / 2)
        rho = DensityOperator(np.diag([0.5, 0.3, 0.2]))
        v = StateVector.normalized([1.0, 1.0j, 0.0]).projector()
        pi = type(v)(v.matrix + StateVector(np.eye(3)[2]).projector().matrix)
        setup = MeasurementSetup(obs, rho, pi, 1.3, GaussianPointer(0.8))
        exact = exact_shifts(setup)
        oracle = grid_shifts(setup, GridSpec(GridSpec.for_setup(setup).half_width, 8192))
        assert oracle.delta_q == approx(exact.delta_q, abs=1e-8 * 0.8)
        assert oracle.delta_p == approx(exact.delta_p, abs=1e-8 / (2 * 0.8))

    def test_complex_amplitudes_move_momentum(self):
        setup = MeasurementSetup(
            HermitianObservable(np.array([[0.0, 1.0], [1.0, 0.0]])),
            StateVector(np.eye(2)[0]).density(),
            StateVector.normalized([1.0, 1.0j]).projector(),
            g=0.7,
            pointer=GaussianPointer(1.0),
        )
        exact = exact_shifts(setup)
        oracle = grid_shifts(setup, GridSpec.for_setup(setup))
        assert exact.delta_p != 0.0
        assert oracle.delta_p == approx(exact.delta_p, abs=1e-8)

    def test_matches_the_einsum_reference(self):
        """The BLAS products and the tabled phases re-order the sums, not the
        quadrature: on seeded setups (d = 2..8, rho from pure to full rank, Pi
        of rank 1..d-1, g / delta in [1e-3, 30], 1024, 4096 and 2^15 points)
        each output meets the einsum route to 1e-13 relative or 1e-14 in
        pointer units (delta for delta_q, 1 / (2 delta) for delta_p)."""
        rng = np.random.default_rng(24)
        for case in range(28):
            d = 2 + case % 7
            obs = random_hermitian(rng, d) if case % 2 else random_projector_observable(rng, d)
            rho = random_density(rng, d, 1 + case // 7 * (d - 1) // 3)
            pi = random_projector(rng, d, int(rng.integers(1, d)))
            delta = float(rng.choice([0.5, 1.0, 2.0]))
            g = delta * 10.0 ** rng.uniform(-3.0, np.log10(30.0))
            setup = MeasurementSetup(obs, rho, pi, g, GaussianPointer(delta))
            grid = GridSpec(GridSpec.for_setup(setup).half_width, (1024, 4096, 2**15)[case % 3])
            out = grid_shifts(setup, grid)
            ref_q, ref_p, ref_prob = _einsum_grid_moments(setup, grid)
            assert abs(out.delta_q - ref_q) <= max(1e-13 * abs(ref_q), 1e-14 * delta), case
            assert abs(out.delta_p - ref_p) <= max(1e-13 * abs(ref_p), 1e-14 / (2.0 * delta)), case
            assert abs(out.postselect_prob - ref_prob) <= 1e-13 * ref_prob, case

    def test_interference_scenario_has_no_momentum_shift_on_the_grid(self):
        """Real amplitudes and levels {0, 1}: the momentum density is even
        on the symmetric grid, and its first moment is 0 exactly."""
        text = resources.files("weakmeter").joinpath("scenarios", "hardy_nono.json").read_text()
        setup, grid = parse_scenario(json.loads(text))
        assert grid_shifts(setup, grid).delta_p == 0.0

    def test_peak_memory_at_the_largest_dimension(self):
        """tracemalloc peak of one call at d = 8 (full-rank rho, rank-7 Pi,
        R = 64 rows) on 2^15 points.  The einsum route held every row over
        the whole grid: psi as (8, 8, n) complex in each route (1 kB per
        point), |psi|^2 beside it, the complex copy of the profile and the
        phases; it peaked at 93,342,024 B, 2,849 B per point.  The passes
        hold one 2R x 512 real block of wavefunction parts (0.52 MB) and the
        pass's profile, phases and their real parts (0.16 MB), beside the
        grid-length float arrays (the grids, xs, the densities and the
        trapezoid's temporaries): about 72 B per point, 3.16 MB in all."""
        rng = np.random.default_rng(8)
        setup = MeasurementSetup(
            random_hermitian(rng, 8), random_density(rng, 8), random_projector(rng, 8, 7),
            0.7, GaussianPointer(1.0),
        )
        n = 2**15
        grid = GridSpec(GridSpec.for_setup(setup).half_width, n)
        grid_shifts(setup, grid)
        tracemalloc.start()
        try:
            grid_shifts(setup, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 93_342_024
        assert peak <= 1_000_000 + 128 * n, peak


def _einsum_grid_moments(setup, grid):
    """The oracle's earlier route, kept as its reference: einsum contractions
    over the whole grid, the complex copy of the position profile and one
    complex exp per level and momentum point.  (delta_q, delta_p,
    postselect_prob), without the oracle's checks."""
    g, delta = setup.g, setup.pointer.delta
    eigs = setup.observable.eigenvalues
    weights, chis = setup.preselection.weights, setup.preselection.kets
    branches = np.einsum("kij,mj->mki", setup.observable.projectors, chis)
    xi = np.einsum("ij,mkj->mki", setup.postselection.matrix, branches)
    n = grid.num_points
    qs = np.linspace(-grid.half_width, grid.half_width, n)
    x = (qs[None, :] - g * eigs[:, None]) / delta
    phi_q = (2.0 * np.pi) ** -0.25 / np.sqrt(delta) * np.exp(-(x**2) / 4.0)
    psi_q = np.einsum("mkd,kn->mdn", xi, phi_q.astype(complex))
    dens_q = weights @ np.sum(np.abs(psi_q) ** 2, axis=1)
    ps = np.linspace(-10.0 * setup.pointer.delta_p, 10.0 * setup.pointer.delta_p, n)
    envelope = (2.0 / np.pi) ** 0.25 * np.sqrt(delta) * np.exp(-np.square(delta * ps))
    phi_p = envelope[None, :] * np.exp(-1j * g * np.outer(eigs, ps))
    psi_p = np.einsum("mkd,kn->mdn", xi, phi_p)
    dens_p = weights @ np.sum(np.abs(psi_p) ** 2, axis=1)
    norm_q = float(np.trapezoid(dens_q, qs))
    delta_q = float(np.trapezoid(qs * dens_q, qs)) / norm_q
    delta_p = float(np.trapezoid(ps * dens_p, ps)) / float(np.trapezoid(dens_p, ps))
    return delta_q, delta_p, min(norm_q, 1.0)


class TestGridSpec:
    def test_power_of_two_required(self):
        with pytest.raises(ValidationError):
            GridSpec(half_width=10.0, num_points=3000)

    @pytest.mark.parametrize("num_points", [1024.5, 1024.0, np.float64(2048.0), True, "4096"])
    def test_non_integral_point_count(self, num_points):
        with pytest.raises(ValidationError, match="num_points must be a power of two"):
            GridSpec(3.0, num_points)

    def test_numpy_integer_point_count(self):
        spec = GridSpec(3.0, np.int64(2048))
        assert spec.num_points == 2048 and type(spec.num_points) is int

    def test_minimum_resolution(self):
        with pytest.raises(ValidationError):
            GridSpec(half_width=10.0, num_points=512)

    def test_point_ceiling(self):
        assert GridSpec(10.0, MAX_GRID_POINTS).num_points == 2**17
        with pytest.raises(ValidationError, match=r"power of two in 1024\.\.131072, got 262144"):
            GridSpec(10.0, 2**18)

    def test_for_setup_covers_translated_packets(self):
        setup = MeasurementSetup(
            HermitianObservable(np.diag([3.0, -3.0])),
            StateVector.normalized([1.0, 1.0]).density(),
            StateVector.normalized([1.0, 0.5]).projector(),
            g=2.0,
            pointer=GaussianPointer(1.0),
        )
        spec = GridSpec.for_setup(setup)
        assert spec.half_width == approx(10.0 * 1.0 + 2.0 * 3.0)


class TestSetupValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="observable/preselection/postselection are 2/3/3"):
            MeasurementSetup(
                PATH,
                StateVector(np.eye(3)[0]).density(),
                StateVector(np.eye(3)[1]).projector(),
                g=0.1,
                pointer=GaussianPointer(1.0),
            )

    def test_negative_coupling(self):
        with pytest.raises(ValidationError):
            MeasurementSetup(
                PATH,
                StateVector(np.eye(2)[0]).density(),
                StateVector.normalized([1.0, 1.0]).projector(),
                g=-0.1,
                pointer=GaussianPointer(1.0),
            )

    def _setup(self, g):
        return MeasurementSetup(
            PATH,
            StateVector(np.eye(2)[0]).density(),
            StateVector.normalized([1.0, 1.0]).projector(),
            g=g,
            pointer=GaussianPointer(1.0),
        )

    @pytest.mark.parametrize("g", [np.float64(0.25), 2, np.int64(3), 0.0])
    def test_coupling_is_stored_as_a_python_float(self, g):
        setup = self._setup(g)
        assert type(setup.g) is float and setup.g == float(g)

    @pytest.mark.parametrize("g", [-0.1, -1, float("nan"), float("inf"), np.float64(-2.0), np.float64("nan")])
    def test_bad_coupling_message(self, g):
        with pytest.raises(ValidationError, match=r"coupling g must be finite and >= 0, got "):
            self._setup(g)

    @pytest.mark.parametrize("field", [0, 1, 2])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
    def test_outcome_names_the_non_finite_field(self, field, bad):
        values = [0.1, -0.2, 0.5]
        values[field] = bad
        name = ("delta_q", "delta_p", "postselect_prob")[field]
        with pytest.raises(ValidationError, match=f"measurement outcome: {name} is not finite"):
            MeasurementOutcome(*values)

    def test_outcome_names_the_first_non_finite_field(self):
        with pytest.raises(ValidationError, match="delta_p is not finite"):
            MeasurementOutcome(0.1, float("inf"), float("nan"))

    @pytest.mark.parametrize("prob", [0.0, -0.5, 1.0 + 2e-12])
    def test_outcome_probability_outside_unit_interval(self, prob):
        with pytest.raises(ValidationError, match=r"postselect_prob .* outside \(0, 1\]"):
            MeasurementOutcome(0.1, 0.2, prob)

    def test_outcome_stores_python_floats(self):
        out = MeasurementOutcome(np.float64(0.1), 2, np.float32(0.5))
        assert [type(v) for v in (out.delta_q, out.delta_p, out.postselect_prob)] == [float] * 3
        assert (out.delta_q, out.delta_p, out.postselect_prob) == (0.1, 2.0, 0.5)
        assert MeasurementOutcome(0.1, 0.2, 1.0 + 1e-12).postselect_prob == 1.0 + 1e-12

    def test_pointer_width_positive(self):
        with pytest.raises(ValidationError):
            GaussianPointer(0.0)

    def test_pointer_widths_satisfy_uncertainty(self):
        p = GaussianPointer(0.25)
        assert p.delta * p.delta_p == approx(0.5)  # minimum-uncertainty packet
