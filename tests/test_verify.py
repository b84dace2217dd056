"""The randomized invariant suites behind the `verify` subcommand."""

import json

import numpy as np
import pytest

from weakmeter import SUITE_NAMES, ValidationError, parse_scenario, run_suites, verify
from weakmeter.verify import hardy_suite, info_suite


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
