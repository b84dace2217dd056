"""Weak values, conditional moments, and low-order shift formulas.

Reference numbers are hand algebra on qubit selections: with A = |0><0|,
preselection (1, 1)/sqrt(2) and postselection (0.6, -0.8) the weak value
is exactly -3, since <f|A|i> = 0.6/sqrt(2) and <f|i> = -0.2/sqrt(2).
"""

import numpy as np
import pytest
from pytest import approx

from weakmeter import (
    DegenerateDenominatorError,
    DensityOperator,
    GaussianPointer,
    HermitianObservable,
    MeasurementSetup,
    OrthogonalSelectionError,
    ProjectionOperator,
    StateVector,
    ValidationError,
    WeakMoments,
    WeakValue,
    check_weak_bounds,
    jozsa_shifts,
    schwarz_gap,
    second_order_shifts,
    weak_moments,
)
from weakmeter.exactengine import _selection_amplitudes
from weakmeter.sampling import (
    random_density,
    random_hermitian,
    random_projector,
    random_projector_observable,
    random_state,
)

SIGMA_X = HermitianObservable(np.array([[0.0, 1.0], [1.0, 0.0]]))
PATH = HermitianObservable(np.diag([1.0, 0.0]))


def _moments(pre, post, obs):
    return weak_moments(
        StateVector.normalized(pre).density(),
        StateVector.normalized(post).projector(),
        obs,
    )


class TestWeakValue:
    def test_complex_roundtrip(self):
        w = WeakValue.from_complex(1.5 - 2.0j)
        assert w.as_complex == 1.5 - 2.0j
        assert w.magnitude == approx(2.5)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            WeakValue(np.nan, 0.0)


class TestWeakMoments:
    def test_anomalous_qubit(self):
        m = _moments([1.0, 1.0], [0.6, -0.8], PATH)
        assert m.weak_value.real_part == approx(-3.0, rel=1e-12)
        assert m.weak_value.imag_part == approx(0.0, abs=1e-14)
        assert m.two_sided == approx(9.0, rel=1e-12)
        assert m.square_real == approx(-3.0, rel=1e-12)  # A^2 = A
        assert m.postselect_prob == approx(0.02, rel=1e-12)

    def test_purely_imaginary_weak_value(self):
        """sigma_x between |0> and (1, -i)/sqrt(2) gives A_w = -i."""
        m = _moments([1.0, 0.0], [1.0, 1.0j], SIGMA_X)
        assert m.weak_value.real_part == approx(0.0, abs=1e-14)
        assert m.weak_value.imag_part == approx(-1.0, rel=1e-12)
        assert m.square_real == approx(1.0, rel=1e-12)  # sigma_x^2 = 1
        assert m.two_sided == approx(1.0, rel=1e-12)

    def test_orthogonal_selection_raises(self):
        with pytest.raises(OrthogonalSelectionError):
            _moments([1.0, 0.0], [0.0, 1.0], PATH)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            weak_moments(
                DensityOperator(np.eye(3) / 3),
                ProjectionOperator.identity(2),
                PATH,
            )

    def test_schwarz_guard_in_constructor(self):
        with pytest.raises(ValidationError):
            WeakMoments(WeakValue(2.0, 0.0), two_sided=1.0, square_real=4.0, postselect_prob=0.5)

    def test_probability_bounds(self):
        with pytest.raises(ValidationError):
            WeakMoments(WeakValue(0.0, 0.0), 0.0, 0.0, postselect_prob=0.0)
        with pytest.raises(ValidationError):
            WeakMoments(WeakValue(0.0, 0.0), 0.0, 0.0, postselect_prob=1.5)


class TestShiftFormulas:
    def test_real_weak_value_moves_position_only(self):
        dq, dp = jozsa_shifts(WeakValue(-3.0, 0.0), 0.05, GaussianPointer(1.0))
        assert dq == approx(-0.15, rel=1e-14)
        assert dp == 0.0

    def test_imaginary_weak_value_moves_momentum_only(self):
        """delta_p = 2 g b Var_p with Var_p = 1/(4 Delta^2)."""
        pointer = GaussianPointer(0.5)
        dq, dp = jozsa_shifts(WeakValue(0.0, -1.0), 0.1, pointer)
        assert dq == 0.0
        assert dp == approx(2.0 * 0.1 * -1.0 * 1.0, rel=1e-14)

    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_second_order_reduces_to_first_when_moments_match(self, delta):
        # two_sided == square_real makes D = 1 at any coupling
        m = WeakMoments(WeakValue(0.3, 0.7), two_sided=1.0, square_real=1.0, postselect_prob=0.4)
        pointer = GaussianPointer(delta)
        assert second_order_shifts(m, 2.0, pointer) == approx(
            jozsa_shifts(m.weak_value, 2.0, pointer)
        )

    def test_anomalous_qubit_second_order(self):
        # D = 1 + g^2/(4) * (9 - (-3)) = 1 + 3 g^2 at Delta = 1
        m = _moments([1.0, 1.0], [0.6, -0.8], PATH)
        dq, dp = second_order_shifts(m, 0.05, GaussianPointer(1.0))
        assert dq == approx(-0.15 / 1.0075, rel=1e-12)
        assert dp == approx(0.0, abs=1e-14)

    def test_degenerate_denominator(self):
        # g^2 Var_p (two_sided - square_real) = -1 exactly
        m = WeakMoments(WeakValue(0.0, 0.0), two_sided=0.5, square_real=1.5, postselect_prob=0.1)
        with pytest.raises(DegenerateDenominatorError):
            second_order_shifts(m, 2.0, GaussianPointer(1.0))

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValidationError):
            jozsa_shifts(WeakValue(1.0, 0.0), -1.0, GaussianPointer(1.0))


class TestSchwarzGap:
    def test_rank_one_pure_saturates(self):
        rho = StateVector.normalized([1.0, 2.0j]).density()
        pi = StateVector.normalized([3.0, -1.0]).projector()
        assert schwarz_gap(rho, pi, SIGMA_X) == approx(0.0, abs=1e-10)

    def test_mixed_state_opens_gap(self):
        """For rho = I/2 and Pi = |0><0|, A_w(sigma_x) = 0 but the
        two-sided moment is 1, so the gap is exactly 1."""
        rho = DensityOperator(np.eye(2) / 2)
        pi = ProjectionOperator(np.diag([1.0, 0.0]))
        assert schwarz_gap(rho, pi, SIGMA_X) == approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_gap_never_negative(self, dim):
        rng = np.random.default_rng(900 + dim)
        for _ in range(200):
            h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            obs = HermitianObservable((h + h.conj().T) / 2)
            rho = StateVector.normalized(
                rng.normal(size=dim) + 1j * rng.normal(size=dim)
            ).density()
            pi = StateVector.normalized(
                rng.normal(size=dim) + 1j * rng.normal(size=dim)
            ).projector()
            try:
                gap = schwarz_gap(rho, pi, obs)
            except OrthogonalSelectionError:
                continue
            assert gap >= -1e-10


def _tilted_selection(rng, dim, prob):
    """A pure preselection psi and the postselection w + sqrt(prob) psi,
    normalized, with w a random unit vector orthogonal to psi."""
    psi = random_state(rng, dim).amplitudes
    w = random_state(rng, dim).amplitudes
    w = w - np.vdot(psi, w) * psi
    f = w / np.linalg.norm(w) + np.sqrt(prob) * psi
    return StateVector(psi).density(), StateVector.normalized(f).projector()


class TestNearOrthogonalSelections:
    @pytest.mark.parametrize("prob", [1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_rank_one_moments_stay_valid(self, dim, prob):
        """Far above the 1e-14 floor a rank-one selection is valid input:
        the moments never fail their own Schwarz check, and the gap is
        exactly zero because both are read from the same amplitudes."""
        rng = np.random.default_rng([dim, round(-np.log10(prob))])
        for _ in range(40):
            obs = random_hermitian(rng, dim)
            rho, pi = _tilted_selection(rng, dim, prob)
            m = weak_moments(rho, pi, obs)
            assert m.postselect_prob == approx(prob, rel=1e-2)
            assert schwarz_gap(rho, pi, obs) == 0.0


def _selection_readings(rho, pi, obs, order):
    """repr of weak_moments, schwarz_gap and check_weak_bounds, called in
    `order`: repr round-trips every float, so equal text is equal bits."""
    setup = MeasurementSetup(obs, rho, pi, 1e-3, GaussianPointer(1.0))  # g * Delta_p = 5e-4
    calls = {
        "moments": lambda: weak_moments(rho, pi, obs),
        "gap": lambda: schwarz_gap(rho, pi, obs),
        "report": lambda: check_weak_bounds(setup),
    }
    return {name: repr(calls[name]()) for name in order}


@pytest.mark.parametrize("dim", range(2, 7))
def test_cached_sums_change_no_bit(dim):
    """The column sums are formed once per cached selection and read by
    weak_moments, schwarz_gap and check_weak_bounds: every call order, and
    a cleared cache, give the same bits, and the cached sums are the ones
    the amplitudes give, read-only.  Near-orthogonal selections
    (p ~ 1e-10) are among the draws."""
    rng = np.random.default_rng(2310 + dim)
    orders = [("moments", "gap", "report"), ("report", "gap", "moments"), ("gap", "report", "moments")]
    for case in range(30):
        obs = random_projector_observable(rng, dim) if case % 2 else random_hermitian(rng, dim)
        if case % 3 == 0:
            rho, pi = _tilted_selection(rng, dim, 1e-10)
        else:
            rho = random_density(rng, dim, int(rng.integers(1, dim + 1)))
            pi = random_projector(rng, dim, int(rng.integers(1, dim)))
        readings = []
        for order in orders:
            _selection_amplitudes.cache_clear()
            readings.append(_selection_readings(rho, pi, obs, order))
            readings.append(_selection_readings(rho, pi, obs, order[::-1]))  # warm
        assert all(r == readings[0] for r in readings), case
        selection = _selection_amplitudes(rho, pi, obs)
        sums, prob = selection.sums
        fresh = (obs.eigenvalues ** np.arange(3)[:, None]) @ selection.amplitudes
        assert sums.tobytes() == fresh.tobytes() and not sums.flags.writeable
        assert prob == float(np.vdot(fresh[0], fresh[0]).real)
        if case % 3 == 0:
            assert prob == approx(1e-10, rel=1e-2)
