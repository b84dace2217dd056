"""The two-particle interference paradox: negative inferred occupation.

Preselection populates the three arm pairs other than OO evenly; the
postselection picks the overlap-free combination, so reading the pointer
shift of each arm-pair projector back as shift/g assigns the NONO pair a
negative occupation at weak coupling that climbs to +1/5 when the coupling
turns projective.
"""

import numpy as np
import pytest
from pytest import approx

from weakmeter import (
    HermitianObservable,
    InternalConsistencyError,
    ValidationError,
    hardy,
    probability_curve,
    weak_moments,
)
from weakmeter.hardy import build_hardy, closed_form_shifts, hardy_probabilities


class TestScenario:
    def test_projectors_resolve_identity(self):
        hardy = build_hardy()
        total = sum(p.matrix for p in hardy.operators.values())
        np.testing.assert_array_equal(total, np.eye(4))
        assert all(p.rank == 1 for p in hardy.operators.values())

    def test_selection_probability_is_one_twelfth(self):
        # |<f|i>|^2 = (1/(2 sqrt(3)))^2
        hardy = build_hardy()
        pre = hardy.preselection.amplitudes
        prob = np.vdot(pre, hardy.postselection.matrix @ pre)
        assert prob.real == approx(1.0 / 12.0, rel=1e-12)
        assert prob.imag == approx(0.0, abs=1e-15)

    def test_weak_values_sum_to_one(self):
        """The four arm-pair weak values resolve the identity: 0, 1, 1, -1."""
        hardy = build_hardy()
        rho = hardy.preselection.density()
        expected = {"OO": 0.0, "ONO": 1.0, "NOO": 1.0, "NONO": -1.0}
        total = 0.0
        for label, proj in hardy.operators.items():
            obs = HermitianObservable.from_projector(proj)
            w = weak_moments(rho, hardy.postselection, obs).weak_value
            assert w.real_part == approx(expected[label], rel=1e-12, abs=1e-12)
            assert w.imag_part == approx(0.0, abs=1e-12)
            total += w.real_part
        assert total == approx(1.0, rel=1e-12)


class TestClosedForm:
    def test_unit_coupling(self):
        shifts = closed_form_shifts(1.0, 1.0)
        assert shifts["OO"] == 0.0
        assert shifts["ONO"] == approx(1.0, rel=1e-14)
        assert shifts["NOO"] == approx(1.0, rel=1e-14)
        # g (1 - 2 e^{-1/8}) / (5 - 4 e^{-1/8}), 40-digit value
        assert shifts["NONO"] == approx(-0.52039956298959116151, rel=1e-12)

    @pytest.mark.parametrize("g,delta", [(0.3, 1.0), (2.0, 0.5), (7.0, 2.0)])
    def test_single_arm_shifts_scale_linearly(self, g, delta):
        shifts = closed_form_shifts(g, delta)
        assert shifts["ONO"] == approx(g, rel=1e-14)
        assert shifts["NOO"] == approx(g, rel=1e-14)


class TestProbabilities:
    def test_engine_agrees_with_closed_form_at_unit_coupling(self):
        point = hardy_probabilities(1.0)
        assert point.prob_oo == 0.0
        assert point.prob_ono == approx(1.0, rel=1e-12)
        assert point.prob_noo == approx(1.0, rel=1e-12)
        assert point.prob_nono == approx(-0.52039956298959116151, rel=1e-12)

    def test_weak_limit_reaches_minus_one(self):
        point = hardy_probabilities(1e-3)
        assert point.prob_nono == approx(-0.99999925000042187476, rel=1e-9)
        assert point.prob_nono > -1.0

    def test_strong_limit_reaches_one_fifth(self):
        point = hardy_probabilities(10.0)
        assert point.prob_nono == approx(0.19999910560057220795, rel=1e-9)
        assert point.prob_nono < 0.2

    def test_probabilities_of_other_pairs_stay_classical(self):
        for g in (0.01, 0.5, 3.0):
            point = hardy_probabilities(g)
            assert 0.0 <= point.prob_ono <= 1.0 + 1e-12
            assert 0.0 <= point.prob_noo <= 1.0 + 1e-12
            assert point.prob_oo == 0.0

    def test_wider_pointer_extends_the_weak_regime(self):
        """Only g/Delta matters: doubling Delta at doubled g is invariant."""
        assert hardy_probabilities(0.4, delta=1.0).prob_nono == approx(
            hardy_probabilities(0.8, delta=2.0).prob_nono, rel=1e-12
        )


class TestCurve:
    def test_monotone_climb(self):
        curve = probability_curve(1e-3, 10.0, 64)
        nono = [p.prob_nono for p in curve]
        assert all(b > a for a, b in zip(nono, nono[1:]))
        assert curve[0].g == approx(1e-3)
        assert curve[-1].g == approx(10.0)

    def test_monotonicity_check_covers_every_point(self, monkeypatch):
        rows = hardy._probability_rows

        def dipped(gs, delta):
            probs = rows(gs, delta)
            probs[-1, 40] = probs[-1, 39] - 1e-9
            return probs

        monkeypatch.setattr(hardy, "_probability_rows", dipped)
        gs = np.geomspace(1e-3, 10.0, 64)
        with pytest.raises(InternalConsistencyError, match=f"between g = {float(gs[39])!r} and {float(gs[40])!r}$"):
            probability_curve(1e-3, 10.0, 64)

    def test_lin_spacing(self):
        curve = probability_curve(1.0, 2.0, 3, spacing="lin")
        assert [p.g for p in curve] == approx([1.0, 1.5, 2.0])

    def test_log_spacing(self):
        curve = probability_curve(0.01, 1.0, 3, spacing="log")
        assert [p.g for p in curve] == approx([0.01, 0.1, 1.0])

    @pytest.mark.parametrize(
        "g_min,g_max,points",
        [(0.0, 1.0, 10), (-1.0, 1.0, 10), (1.0, 0.5, 10), (0.1, 1.0, 1),
         (1e-3, 1.0, 2.5), (1e-3, 1.0, 8.0), (1e-3, 1.0, np.float64(5.0)), (1e-3, 1.0, True)],
    )
    def test_bad_ranges(self, g_min, g_max, points):
        with pytest.raises(ValidationError):
            probability_curve(g_min, g_max, points)

    def test_numpy_integer_point_count(self):
        assert len(probability_curve(1e-3, 1.0, np.int64(5))) == 5

    def test_bad_spacing(self):
        with pytest.raises(ValidationError):
            probability_curve(0.1, 1.0, 8, spacing="sqrt")

    @pytest.mark.parametrize("g_min,g_max,spacing", [(1e-3, 40.0, "log"), (1e-3, 40.0, "lin")])
    def test_every_point_equals_the_one_point_call(self, g_min, g_max, spacing):
        """The batched sweep and hardy_probabilities are one computation,
        and every record holds Python floats."""
        for pt in probability_curve(g_min, g_max, 500, spacing=spacing):
            one = hardy_probabilities(pt.g)
            fields = list(zip(vars(pt).values(), vars(one).values()))
            assert len(fields) == 5 and all(type(a) is type(b) is float and a == b for a, b in fields), (pt, one)

