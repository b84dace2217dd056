"""The randomized invariant suites behind the `verify` subcommand."""

import json

import numpy as np
import pytest

from weakmeter import SUITE_NAMES, ValidationError, parse_scenario, run_suites, verify
from weakmeter.verify import _weak_ceiling, hardy_suite, info_suite


def test_suite_names_cover_the_five_checks():
    assert SUITE_NAMES == ("schwarz", "bounds", "oracle", "hardy", "info")


def test_single_suite_selection():
    results = run_suites("hardy")
    assert len(results) == 1
    assert results[0].name == "hardy"


def test_unknown_suite_rejected():
    with pytest.raises(ValidationError):
        run_suites("entropy")


def test_hardy_suite_green():
    result = hardy_suite()
    assert result.passed
    assert result.instances == 200
    assert result.worst_margin >= 0.0
    assert result.violating_instance is None


def test_info_suite_green():
    result = info_suite()
    assert result.passed
    assert result.instances == 200


def test_margin_sign_drives_passed():
    result = hardy_suite()
    failed = type(result)(
        name=result.name,
        instances=result.instances,
        worst_margin=-0.25,
        detail=result.detail,
        violating_instance={"g": 1.0},
    )
    assert not failed.passed


def test_violating_instance_replays_as_the_same_setup(monkeypatch):
    """A violation is reported as a scenario that parses back to the
    matrices of the instance that produced it: the first one, since every
    instance then ties at the same margin."""
    seen = []

    def broken_gap(rho, pi, obs):
        seen.append((obs.matrix, rho.matrix, pi.matrix))
        return -1.0

    monkeypatch.setattr(verify, "schwarz_gap", broken_gap)
    result = verify.schwarz_suite()
    assert not result.passed
    setup, _ = parse_scenario(json.loads(json.dumps(result.violating_instance)))
    replayed = (setup.observable.matrix, setup.preselection.matrix, setup.postselection.matrix)
    for got, want in zip(replayed, seen[0]):
        np.testing.assert_array_equal(got, want)
    assert setup.g == 0.0


def test_weak_ceiling_is_the_top_hermite_zero():
    """z_K, the largest zero of He_K: the closed forms for K = 2, 3, 4 to
    4 ulps, and for K = 5..8 a zero of He_K to rounding (the three-term
    recurrence He_(n+1) = x He_n - n He_(n-1), against the same recurrence
    on absolute values), above the zeros of He_(K-1)."""
    closed = {2: 1.0, 3: np.sqrt(3.0), 4: np.sqrt(3.0 + np.sqrt(6.0))}
    for k, z in closed.items():
        assert abs(_weak_ceiling(k) - z) <= 4 * np.spacing(z), k
    for k in range(5, 9):
        z = _weak_ceiling(k)
        prev, cur, prev_abs, cur_abs = 1.0, z, 1.0, z
        for n in range(1, k):
            prev, cur = cur, z * cur - n * prev
            prev_abs, cur_abs = cur_abs, z * cur_abs + n * prev_abs
        assert abs(cur) <= 4 * k * np.finfo(float).eps * cur_abs, k
        assert z > _weak_ceiling(k - 1), k
