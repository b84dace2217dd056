"""Exact pointer statistics and the independent grid oracle.

The engine computes postselected first moments of the pointer from
Gaussian overlap matrix elements in closed form; the oracle builds the
final pointer wavefunction on a grid and integrates.  The two routes share
no code beyond the setup container, so agreement is a real check.
"""

import json
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
    MeasurementSetup,
    OrthogonalSelectionError,
    ProjectionOperator,
    StateVector,
    ValidationError,
    build_hardy,
    check_weak_bounds,
    exact_shifts,
    grid_shifts,
    jozsa_shifts,
    parse_scenario,
    schwarz_gap,
    second_order_shifts,
    von_neumann_entropy,
    weak_moments,
)
from weakmeter.exactengine import _overlap_kernels, _pointer_sums, _selection_amplitudes
from weakmeter.sampling import random_density, random_projector, random_projector_observable

PATH = HermitianObservable(np.diag([1.0, 0.0]))


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
    read off the engine's kernels h, qker and pker at ratio g / delta:

        <Phi_a | Phi_a'>     = G = 1 - h
        <Phi_a | q | Phi_a'> = g (a + a') / 2 * G
        <Phi_a | p | Phi_a'> = i g (a - a') / (4 delta^2) * G
    """
    h, qker, pker = _overlap_kernels(np.array([a, a_prime]), g / delta)[:, 0, 1]
    s = 1.0 - h
    q_elem = g * ((a + a_prime) / 2.0 - qker)
    p_elem = 1j * (g / delta**2) * ((a - a_prime) / 4.0 - pker)
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
        """A 1-d ratio gives one result per coupling, equal to the scalar calls."""
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        obs = HermitianObservable((m + m.conj().T) / 2)
        rho = DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1]))
        pi = ProjectionOperator(np.diag([1.0, 1.0, 0.0, 0.0]))
        eigs = np.array(obs.eigenvalues)
        c = _selection_amplitudes(rho, pi, obs)
        ratios = np.geomspace(1e-3, 30.0, 9)
        *batch, batch_resid = _pointer_sums(c, eigs, _overlap_kernels(eigs, ratios))
        assert batch_resid.shape == ratios.shape and np.all(batch_resid < 1e-13)
        for i, r in enumerate(ratios):
            *single, resid = _pointer_sums(c, eigs, _overlap_kernels(eigs, r))
            assert resid < 1e-13
            for b, s_ in zip(batch, single):
                assert b[i] == approx(float(s_), rel=1e-14)

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


def _mp_delta_q(a, rho, pi, g, delta):
    """delta_q and N at 50 digits from the same double inputs, A = diag(a):
    w(k, l) = Pi_kl rho_lk, G = exp(-g^2 (a_k - a_l)^2 / (8 delta^2))."""
    with mpmath.workdps(50):
        num = den = mpmath.mpf(0)
        for k in range(len(a)):
            for l in range(len(a)):
                w = mpmath.mpc(complex(pi[k, l])) * mpmath.mpc(complex(rho[l, k]))
                ak, al = mpmath.mpf(float(a[k])), mpmath.mpf(float(a[l]))
                overlap = mpmath.exp(-((mpmath.mpf(g) * (ak - al)) ** 2) / (8 * mpmath.mpf(delta) ** 2))
                den += w * overlap
                num += w * (ak + al) / 2 * overlap
        return float((mpmath.mpf(g) * num / den).real), float(den.real)


@pytest.mark.parametrize("family", ["pure", "two-eigenvector", "near-pure"])
def test_delta_q_keeps_relative_precision_near_orthogonality(family):
    """At g = 1e-4 delta and N ~ 1e-9 the relative error of delta_q against
    a 50-digit evaluation stays within 16 eps / N, the rounding of N itself."""
    eps = 2.2e-16
    g, delta = 1e-4, 1.0
    rng = np.random.default_rng({"pure": 11, "two-eigenvector": 12, "near-pure": 13}[family])
    for _ in range(20):
        a_mat, rho, pi = _near_orthogonal_setups(family, rng)
        setup = MeasurementSetup(
            HermitianObservable(a_mat), DensityOperator(rho), ProjectionOperator(pi),
            g, GaussianPointer(delta),
        )
        ref, n_ref = _mp_delta_q(np.diag(a_mat).real, rho, pi, g, delta)
        assert 1e-11 < n_ref < 1e-8
        err = abs(exact_shifts(setup).delta_q - ref) / abs(ref)
        assert err <= 16.0 * eps / n_ref, (err * n_ref / eps, ref)


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
        oracle = grid_shifts(setup, GridSpec.for_setup(setup, num_points=8192))
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
        pi = type(v)(v.matrix + StateVector.basis_state(3, 2).projector().matrix)
        setup = MeasurementSetup(obs, rho, pi, 1.3, GaussianPointer(0.8))
        exact = exact_shifts(setup)
        oracle = grid_shifts(setup, GridSpec.for_setup(setup, num_points=8192))
        assert oracle.delta_q == approx(exact.delta_q, abs=1e-8 * 0.8)
        assert oracle.delta_p == approx(exact.delta_p, abs=1e-8 / (2 * 0.8))

    def test_complex_amplitudes_move_momentum(self):
        setup = MeasurementSetup(
            HermitianObservable(np.array([[0.0, 1.0], [1.0, 0.0]])),
            StateVector.basis_state(2, 0).density(),
            StateVector.normalized([1.0, 1.0j]).projector(),
            g=0.7,
            pointer=GaussianPointer(1.0),
        )
        exact = exact_shifts(setup)
        oracle = grid_shifts(setup, GridSpec.for_setup(setup))
        assert exact.delta_p != 0.0
        assert oracle.delta_p == approx(exact.delta_p, abs=1e-8)


class TestGridSpec:
    def test_power_of_two_required(self):
        with pytest.raises(ValidationError):
            GridSpec(half_width=10.0, num_points=3000)

    def test_minimum_resolution(self):
        with pytest.raises(ValidationError):
            GridSpec(half_width=10.0, num_points=512)

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
        with pytest.raises(ValidationError):
            MeasurementSetup(
                PATH,
                StateVector.basis_state(3, 0).density(),
                StateVector.basis_state(3, 1).projector(),
                g=0.1,
                pointer=GaussianPointer(1.0),
            )

    def test_negative_coupling(self):
        with pytest.raises(ValidationError):
            MeasurementSetup(
                PATH,
                StateVector.basis_state(2, 0).density(),
                StateVector.normalized([1.0, 1.0]).projector(),
                g=-0.1,
                pointer=GaussianPointer(1.0),
            )

    def test_pointer_width_positive(self):
        with pytest.raises(ValidationError):
            GaussianPointer(0.0)

    def test_pointer_widths_satisfy_uncertainty(self):
        p = GaussianPointer(0.25)
        assert p.delta * p.delta_p == approx(0.5)  # minimum-uncertainty packet
