"""State, operator, and spectral-decomposition primitives."""

import numpy as np
import pytest
from pytest import approx

from weakmeter import (
    DensityOperator,
    GaussianPointer,
    HermitianObservable,
    MeasurementSetup,
    ProjectionOperator,
    StateVector,
    ValidationError,
    check_weak_bounds,
    optimize_pps,
)
from weakmeter.qcore import spectral_decompose, von_neumann_entropy
from weakmeter.sampling import random_projector

RNG = np.random.default_rng(231119)


class TestStateVector:
    def test_normalized_rescales(self):
        s = StateVector.normalized([3.0, 4.0j])
        assert np.linalg.norm(s.amplitudes) == approx(1.0, abs=1e-15)
        assert s.amplitudes[1] == approx(0.8j)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            StateVector([1.0, 1.0])

    def test_rejects_zero_vector(self):
        with pytest.raises(ValidationError):
            StateVector.normalized([0.0, 0.0])

    def test_amplitudes_are_frozen(self):
        s = StateVector(np.eye(2)[0])
        with pytest.raises(ValueError):
            s.amplitudes[0] = 5.0

    def test_density_and_projector_agree(self):
        s = StateVector.normalized(RNG.normal(size=3) + 1j * RNG.normal(size=3))
        np.testing.assert_allclose(s.density().matrix, s.projector().matrix, atol=1e-15)


class TestDensityOperator:
    def test_pure_roundtrip(self):
        s = StateVector.normalized([1.0, 1.0j])
        rho = s.density()
        assert rho.weights == approx([1.0], abs=1e-12)
        assert np.trace(rho.matrix) == approx(1.0)

    def test_rejects_trace_away_from_one(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(ValidationError):
            DensityOperator(m)

    def test_rejects_nonhermitian(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValidationError):
            DensityOperator(m)

    def test_eigen_ensemble_reconstructs(self):
        """rho must equal sum_k w_k |v_k><v_k| over the returned ensemble."""
        probs = np.array([0.6, 0.3, 0.1])
        basis = np.linalg.qr(RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3)))[0]
        rho = DensityOperator(basis @ np.diag(probs) @ basis.conj().T)
        weights, vecs = rho.weights, rho.kets
        assert np.all(np.diff(weights) <= 0)  # descending
        rebuilt = np.einsum("k,ki,kj->ij", weights, vecs, vecs.conj())
        np.testing.assert_allclose(rebuilt, rho.matrix, atol=1e-13)

    def test_eigen_ensemble_drops_null_weights(self):
        rho = StateVector(np.eye(4)[2]).density()
        weights, vecs = rho.weights, rho.kets
        assert len(weights) == 1
        assert weights[0] == approx(1.0)
        assert abs(vecs[0, 2]) == approx(1.0)

    def test_mixed_is_not_pure(self):
        weights = DensityOperator(np.eye(2) / 2).weights
        assert weights == approx([0.5, 0.5], abs=1e-15)


class TestProjectionOperator:
    def test_identity_and_complement(self):
        p = ProjectionOperator.identity(3)
        assert p.rank == 3
        assert p.complement().rank == 0

    def test_rank_one_from_state(self):
        p = StateVector.normalized([1.0, 1.0]).projector()
        assert p.rank == 1
        np.testing.assert_allclose(p.matrix, np.full((2, 2), 0.5), atol=1e-15)

    def test_rejects_nonidempotent(self):
        with pytest.raises(ValidationError):
            ProjectionOperator(np.diag([1.0, 0.5]))

    def test_rejects_a_huge_non_projector(self):
        """m @ m overflows for entries past ~1e154; the entry is refused
        before it is formed, so no NaN drift passes and no warning is raised."""
        with pytest.raises(ValidationError, match=r"not idempotent \(entry of modulus 1.414e\+200 > 2\)"):
            ProjectionOperator(np.array([[0, 1e200 + 1e200j], [1e200 - 1e200j, 0]]))

    def test_rejects_every_huge_hermitian_draw(self):
        """Hermitian d = 2..5 with entries in {0, +-1, +-i} 10^U(154, 308):
        each one with a nonzero entry is refused."""
        rng = np.random.default_rng(20261019)
        units = np.array([0.0, 1.0, -1.0, 1j, -1j])
        for _ in range(400):
            d = int(rng.integers(2, 6))
            upper = np.triu(units[rng.integers(0, 5, (d, d))] * 10.0 ** rng.uniform(154, 308, (d, d)), 1)
            diagonal = units[rng.integers(0, 3, d)].real * 10.0 ** rng.uniform(154, 308, d)
            m = upper + upper.conj().T + np.diag(diagonal)
            if np.any(m):
                with pytest.raises(ValidationError, match="not idempotent"):
                    ProjectionOperator(m)


class TestHermitianObservable:
    def test_spectrum_sorted_ascending(self):
        obs = HermitianObservable(np.diag([2.0, -1.0, 0.5]))
        assert obs.eigenvalues == approx((-1.0, 0.5, 2.0))
        assert obs.max_abs_eigenvalue == approx(2.0)

    def test_projector_detection(self):
        assert HermitianObservable(np.diag([1.0, 0.0, 1.0])).is_projector()
        assert HermitianObservable(np.diag([1e-11, 1.0 - 1e-11])).is_projector()
        assert not HermitianObservable(np.diag([1.0, -1.0])).is_projector()

    @pytest.mark.parametrize("levels", [[0.0, 1e-11], [0.0, 1e-20, 2e-20], [0.0, 2.0]])
    def test_levels_decide_projector_at_any_scale(self, levels):
        """Levels near 0 alone, or 0 and 2, are no projector's, though
        max |A^2 - A| of the first two is far below 1e-10."""
        assert not HermitianObservable(np.diag(levels)).is_projector()

    def test_near_projectors_pass_no_looser_than_the_product(self):
        """Rotated qubit projectors plus a Hermitian drift of 3e-11..3e-10.
        Each level is one eigenvalue, so where the levels pass, so does
        max |A^2 - A| <= 1e-10, and some pass the entrywise test but not
        the level test."""
        rng = np.random.default_rng(1729)
        stricter = 0
        for _ in range(300):
            noise = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            drift_scale = 10.0 ** rng.uniform(-10.5, -9.5)
            m = random_projector(rng, 2, 1).matrix + drift_scale * (noise + noise.conj().T) / 4.0
            drift = float(np.abs(m @ m - m).max())
            if HermitianObservable(m).is_projector():
                assert drift <= 1e-10 + 4 * np.finfo(float).eps, drift
            else:
                stricter += drift <= 1e-10
        assert stricter > 0

    def test_a_merged_level_passes_by_its_mean(self):
        """Eigenvalues 1 + 5e-12 and 1 + 1.9e-10 merge into one level within
        1e-10 of 1, so the levels pass where max |A^2 - A| = 1.9e-10 does
        not: the excess is at most the merged spread, which the rebuild
        check of spectral_decompose holds to 1e-10."""
        m = np.diag([0.0, 1.0 + 5e-12, 1.0 + 1.9e-10])
        assert HermitianObservable(m).is_projector()
        assert float(np.abs(m @ m - m).max()) == approx(1.9e-10, rel=1e-6)

    def test_huge_observable_is_no_projector(self):
        """A^2 would overflow for diag(1e300, 0); the test answers False
        without a warning, so the callers that ask it raise none either."""
        obs = HermitianObservable(np.diag([1e300, 0.0]))
        assert not obs.is_projector()
        pre = StateVector.normalized([1.0, 1.0])
        setup = MeasurementSetup(obs, pre.density(), pre.projector(), 1e-3, GaussianPointer(1.0))
        assert np.isnan(check_weak_bounds(setup).k_value)
        assert np.isnan(optimize_pps(obs, 1.0, GaussianPointer(1.0)).q_max)

    def test_from_projector(self):
        p = ProjectionOperator(np.diag([0.0, 1.0]))
        obs = HermitianObservable.from_projector(p)
        assert obs.is_projector()
        assert obs.eigenvalues == approx((0.0, 1.0))

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_from_projector_matches_the_spectral_route(self, dim):
        """The known spectrum (levels 0 and 1, projectors I - P and P) is
        what a full decomposition of P finds, at every rank."""
        rng = np.random.default_rng(dim)
        for rank in range(dim + 1):
            if 0 < rank < dim:
                p = random_projector(rng, dim, rank)
            else:
                p = ProjectionOperator(np.eye(dim) * (rank > 0))
            fast, full = HermitianObservable.from_projector(p), HermitianObservable(p.matrix)
            assert fast.eigenvalues.shape == full.eigenvalues.shape, rank
            np.testing.assert_allclose(fast.eigenvalues, full.eigenvalues, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(fast.projectors, full.projectors, rtol=0.0, atol=1e-12)
            assert fast.is_projector() and full.is_projector(), rank

    def test_from_projector_keeps_the_dimension_limit(self):
        with pytest.raises(ValidationError, match="d <= 8"):
            HermitianObservable.from_projector(ProjectionOperator.identity(9))

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValidationError):
            HermitianObservable(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSpectralDecompose:
    def test_reconstruction(self):
        h = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        h = (h + h.conj().T) / 2
        eigs, projs = spectral_decompose(h)
        np.testing.assert_allclose(np.einsum("k,kij->ij", eigs, projs), h, atol=1e-12)
        np.testing.assert_allclose(projs.sum(axis=0), np.eye(4), atol=1e-12)

    def test_degenerate_levels_merge(self):
        """A twofold level must come back as a single rank-2 projector."""
        eigs, projs = spectral_decompose(np.diag([1.0, 1.0, 3.0]))
        assert eigs == approx([1.0, 3.0])
        assert [ProjectionOperator(p).rank for p in projs] == [2, 1]

    def test_eigenvalues_ascending(self):
        eigs, _ = spectral_decompose(np.diag([5.0, -2.0, 0.0]))
        assert eigs == approx([-2.0, 0.0, 5.0])

    @pytest.mark.parametrize(
        "matrix,message",
        [
            (np.diag([1e308, -1e308]), "symmetrized entries overflow"),
            (np.diag([1.7e308, -1.7e308]), "symmetrized entries overflow"),
            (np.diag([1.7e308, 1.7e308]), "symmetrized entries overflow"),
            (np.array([[0.8e308, 0.8e308], [0.8e308, -0.8e308]]), "level span inf is not finite"),
            (np.diag([8e307, 8e307, 8e307]), "a degenerate level sums beyond the double range"),
        ],
        ids=["1e308", "1.7e308", "1.7e308 degenerate", "span", "level sum"],
    )
    def test_overflowing_observable_is_refused(self, matrix, message):
        """Huge but finite entries: the symmetrized matrix, the span of its
        levels or a degenerate level's sum leaves the double range, which is
        bad input, not a fault."""
        with pytest.raises(ValidationError, match=message):
            spectral_decompose(matrix)
        with pytest.raises(ValidationError, match=message):
            HermitianObservable(matrix)

    def test_projectors_orthogonal(self):
        h = np.diag([0.0, 1.0, 2.0, 2.0])
        _, projs = spectral_decompose(h)
        for i, p in enumerate(projs):
            for j, q in enumerate(projs):
                expected = p if i == j else np.zeros((4, 4))
                np.testing.assert_allclose(p @ q, expected, atol=1e-12)


class TestEntropy:
    def test_pure_state_zero(self):
        rho = StateVector.normalized([1.0, 2.0j, -1.0]).density()
        assert von_neumann_entropy(rho) == approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(DensityOperator(np.eye(4) / 4)) == approx(2.0)

    def test_binary_mixture(self):
        # h2(3/4) from the 40-digit evaluation of -(3/4)log2(3/4)-(1/4)log2(1/4)
        rho = DensityOperator(np.diag([0.75, 0.25]))
        assert von_neumann_entropy(rho) == approx(0.81127812445913286, rel=1e-14)

    def test_basis_independent(self):
        u = np.linalg.qr(RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3)))[0]
        d = np.diag([0.5, 0.3, 0.2])
        assert von_neumann_entropy(DensityOperator(u @ d @ u.conj().T)) == approx(
            von_neumann_entropy(DensityOperator(d)), abs=1e-12
        )


def _array_holders():
    from weakmeter import GaussianPointer, MeasurementSetup, optimize_pps

    state = StateVector.normalized([1.0, 1.0j])
    obs = HermitianObservable(np.diag([1.0, -1.0]))
    setup = MeasurementSetup(obs, state.density(), state.projector(), 0.5, GaussianPointer(1.0))
    return {
        "StateVector": lambda: state,
        "DensityOperator": lambda: DensityOperator(np.eye(2) / 2.0),
        "ProjectionOperator": lambda: ProjectionOperator(np.diag([1.0, 0.0])),
        "HermitianObservable": lambda: HermitianObservable(np.diag([1.0, -1.0])),
        "MeasurementSetup": lambda: setup,
        "ExtremePair": lambda: optimize_pps(obs, 1.0, GaussianPointer(1.0)),
    }


@pytest.mark.parametrize("kind", list(_array_holders()))
def test_equality_and_hash_do_not_raise_on_array_fields(kind):
    """Objects that hold arrays compare and hash by identity."""
    make = _array_holders()[kind]
    a, b = make(), make()
    assert a == a
    assert (a == b) is (a is b)
    assert hash(a) == hash(a)
    assert len({a, b}) == (1 if a is b else 2)
