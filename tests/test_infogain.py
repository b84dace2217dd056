"""Information the measuring device gains about a two-path system.

After coupling, the device holds one of two Gaussians separated by g with
mutual overlap G = exp(-g^2 / 8 Delta^2).  Its Holevo information about an
even path mixture is the entropy of the evenly mixed device state, since
the branch states stay pure.
"""

import numpy as np
import pytest
from pytest import approx

from weakmeter import (
    InfoGainResult,
    InternalConsistencyError,
    UndefinedExtremeError,
    ValidationError,
    info_curve,
    infogain,
)
from weakmeter.infogain import information_gain, reduced_device_states

import mpref


def _overlap(g, delta=1.0):
    return np.exp(-(g**2) / (8.0 * delta**2))


class TestReducedStates:
    def test_even_mixture_matrix(self):
        rho, rho_1, rho_2 = reduced_device_states(1.0, 1.0)
        G = _overlap(1.0)
        np.testing.assert_allclose(
            rho.matrix, np.array([[0.5, G / 2], [G / 2, 0.5]]), atol=1e-15
        )
        for branch in (rho_1, rho_2):
            assert branch.weights == approx([1.0], abs=1e-12)

    def test_branch_states_overlap(self):
        _, rho_1, rho_2 = reduced_device_states(2.0, 0.7)
        fidelity = np.trace(rho_1.matrix @ rho_2.matrix).real
        assert fidelity == approx(_overlap(2.0, 0.7) ** 2, rel=1e-12)

    def test_branches_average_to_the_mixture(self):
        """All three operators live in one basis: rho_R = (rho_1 + rho_2)/2."""
        rho, rho_1, rho_2 = reduced_device_states(1.3, 1.0)
        np.testing.assert_allclose(
            (rho_1.matrix + rho_2.matrix) / 2, rho.matrix, atol=1e-14
        )

    def test_zero_coupling_branches_coincide(self):
        rho, rho_1, rho_2 = reduced_device_states(0.0, 1.0)
        np.testing.assert_allclose(rho_1.matrix, rho_2.matrix, atol=1e-15)
        assert np.trace(rho.matrix @ rho.matrix).real == approx(1.0)  # still pure

    @pytest.mark.parametrize("delta", [0.7, 1.0])
    def test_one_point_read_of_the_array_pass(self, monkeypatch, delta):
        """reduced_device_states(g, delta) is, bit for bit, the row that the
        array pass builds at g: over the default info-sweep grid and at
        g = 0, 1e-12 and 1e200."""
        built, stack = [], infogain._device_states

        def recording(h):
            built.append(stack(h))
            return built[-1]

        monkeypatch.setattr(infogain, "_device_states", recording)
        gs = np.concatenate((np.linspace(0.01, 10.0, 200), [0.0, 1e-12, 1e200]))
        infogain._gain_columns(gs, delta)
        (states,) = built
        for g, row in zip(gs.tolist(), states):
            one = np.array([rho.matrix for rho in reduced_device_states(g, delta)])
            assert not one.imag.any()
            assert one.real.tobytes() == row.tobytes(), g


class TestInformationGain:
    def test_zero_coupling_learns_nothing(self):
        res = information_gain(0.0)
        assert res.i_a == 0.0
        assert res.lam == approx(1.0)
        assert np.isnan(res.q_min)  # no extreme selection exists at g = 0

    def test_weak_coupling_value(self):
        # h2((1 + e^{-1.25e-5})/2) from a 40-digit evaluation
        res = information_gain(0.01)
        assert res.i_a == approx(1.1706434290176889e-4, rel=1e-9)
        assert res.lam == approx((1.0 + _overlap(0.01)) / 2.0, rel=1e-14)

    def test_projective_coupling_approaches_one_bit(self):
        res = information_gain(10.0)
        assert res.i_a == approx(0.99999999998998196613, rel=1e-12)
        assert res.lam == approx(0.5, abs=2e-6)
        assert res.q_min == approx(-3.4719859662771692083e-11, rel=1e-12)

    def test_matches_entropy_of_mixture(self):
        for g in (0.3, 1.0, 4.0):
            res = information_gain(g)
            lam = (1.0 + _overlap(g)) / 2.0
            h2 = -lam * np.log2(lam) - (1 - lam) * np.log2(1 - lam)
            assert res.i_a == approx(h2, rel=1e-10)

    def test_depends_only_on_g_over_delta(self):
        assert information_gain(1.0, delta=1.0).i_a == approx(
            information_gain(3.0, delta=3.0).i_a, rel=1e-12
        )

    def test_relative_precision_against_mpmath(self):
        """Down to g = 1e-7 Delta, where the meter learns almost nothing,
        I_a stays within 4 eps relative of h2((1 + G)/2) taken at 60 digits."""
        eps = np.finfo(float).eps
        for g in np.geomspace(1e-7, 12.0, 400):
            got, ref = information_gain(float(g)).i_a, mpref.mixture_entropy(g)
            assert abs(got - ref) <= 4 * eps * ref, (g, got, float(ref))

    def test_fields_are_python_floats(self):
        res = information_gain(1.0)
        assert [type(x) for x in (res.g, res.lam, res.i_a, res.q_min)] == [float] * 4

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValidationError):
            information_gain(-1.0)


class TestInfoCurve:
    def test_monotone_in_coupling(self):
        curve = info_curve(0.0, 10.0, 101)
        gains = [p.i_a for p in curve]
        assert all(b > a for a, b in zip(gains, gains[1:]))
        assert gains[0] == 0.0
        assert gains[-1] == approx(1.0, abs=1e-5)

    def test_gain_rises_onto_one_bit(self):
        """Near g = 12 Delta, 1 - I_a ~ G^2 / (2 ln 2) drops below rounding:
        the gain reaches 1 bit exactly, and the sweep's non-decreasing check
        holds all the way."""
        curve = info_curve(0.0, 40.0, 2000)
        assert curve[-1].i_a == 1.0

    def test_gain_stays_on_one_bit_where_envelope_saturates(self):
        """Out to g = 1e200 Delta, where G and q_min saturate to 0, the gain
        holds at 1 bit and the non-decreasing check still passes."""
        curve = info_curve(0.0, 1e200, 2000)
        assert curve[-1].i_a == 1.0

    @pytest.mark.parametrize(
        "g_min,g_max,spacing",
        [(0.0, 40.0, "lin"), (1e-7, 40.0, "log"), (0.0, 1e200, "lin")],
    )
    def test_every_point_equals_the_one_point_call(self, g_min, g_max, spacing):
        """The array pass and information_gain are one computation."""
        if spacing == "lin":
            curve = info_curve(g_min, g_max, 2000)
        else:  # info_curve sweeps linearly; a log grid goes through its array pass directly
            gs = np.geomspace(g_min, g_max, 2000)
            columns = (col.tolist() for col in infogain._gain_columns(gs, 1.0))
            curve = [InfoGainResult(*pt) for pt in zip(gs.tolist(), *columns)]
        for pt in curve:
            one = information_gain(pt.g)
            fields = [(pt.g, one.g), (pt.lam, one.lam), (pt.i_a, one.i_a), (pt.q_min, one.q_min)]
            assert all(type(a) is float and (a == b or a != a and b != b) for a, b in fields), (pt, one)

    def test_underflowing_range_is_rejected_cleanly(self):
        """At g ~ 1e-200 Delta the envelope cannot be told from g = 0."""
        with pytest.raises(UndefinedExtremeError, match="1e-200"):
            info_curve(1e-200, 1e-190, 50)

    @staticmethod
    def _nudge(monkeypatch, index, by):
        closed_form = infogain._binary_entropy_bits

        def nudged(h):
            bits = closed_form(h)
            bits[index] += by
            return bits

        monkeypatch.setattr(infogain, "_binary_entropy_bits", nudged)

    def test_route_check_covers_every_point(self, monkeypatch):
        gs = np.linspace(0.0, 40.0, 2000)
        self._nudge(monkeypatch, 777, 1e-11)
        with pytest.raises(InternalConsistencyError, match=f"at g = {float(gs[777])!r}$"):
            info_curve(0.0, 40.0, 2000)

    def test_monotonicity_check_covers_every_point(self, monkeypatch):
        """A dip of 5e-13 bits on the 1-bit plateau passes the route check
        but not the non-decreasing one."""
        gs = np.linspace(0.0, 40.0, 2000)
        self._nudge(monkeypatch, 1500, -5e-13)
        with pytest.raises(InternalConsistencyError, match=f"between g = {float(gs[1499])!r} and"):
            info_curve(0.0, 40.0, 2000)

    def test_low_gain_rides_deep_negative_extremes(self):
        """Wherever the device has gathered under 0.01 bits the optimal
        selection still drags the pointer past -0.9 Delta."""
        curve = info_curve(0.01, 10.0, 50)
        weak_points = [p for p in curve if p.i_a < 0.01]
        assert weak_points  # the sweep must include the weak regime
        assert all(p.q_min < -0.9 for p in weak_points)

    def test_bad_range(self):
        with pytest.raises(ValidationError):
            info_curve(-0.1, 1.0, 10)
        with pytest.raises(ValidationError):
            info_curve(1.0, 1.0, 10)
        for points in (2.5, np.float64(5.0), True):
            with pytest.raises(ValidationError, match="points must be an integer"):
                info_curve(0.0, 1.0, points)
