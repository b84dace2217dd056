"""Scenario JSON parsing: field-path errors and round-tripping."""

import json
import re

import numpy as np
import pytest
from pytest import approx

from weakmeter import (
    GaussianPointer,
    HermitianObservable,
    MeasurementSetup,
    StateVector,
    ValidationError,
    load_scenario,
    parse_scenario,
    setup_to_json,
    weak_moments,
)


def _qubit_scenario(**overrides):
    data = {
        "dimension": 2,
        "observable": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "preselect": [[0.70710678118654746, 0.0], [0.70710678118654746, 0.0]],
        "postselect": [[0.6, 0.0], [-0.8, 0.0]],
        "g": 0.05,
        "delta": 1.0,
    }
    data.update(overrides)
    return data


class TestParsing:
    def test_pure_vectors(self):
        setup, grid = parse_scenario(_qubit_scenario())
        assert grid is None
        assert setup.g == 0.05
        assert setup.pointer.delta == 1.0
        assert setup.preselection.weights == approx([1.0], abs=1e-12)
        assert setup.postselection.rank == 1
        moments = weak_moments(setup.preselection, setup.postselection, setup.observable)
        assert moments.postselect_prob == approx(0.02, rel=1e-12)

    def test_density_matrix_preselect(self):
        mixed = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        setup, _ = parse_scenario(_qubit_scenario(preselect=mixed))
        assert setup.preselection.weights == approx([0.5, 0.5], abs=1e-12)

    def test_projector_matrix_postselect(self):
        rank2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        setup, _ = parse_scenario(_qubit_scenario(postselect=rank2))
        assert setup.postselection.rank == 2

    def test_pointer_grid(self):
        data = _qubit_scenario(pointer_grid={"half_width": 12.0, "num_points": 2048})
        _, grid = parse_scenario(data)
        assert grid.half_width == 12.0
        assert grid.num_points == 2048

    def test_complex_entries(self):
        # postselect (0.6, -0.8i): projector off-diagonal 0.6 * (0.8i)
        data = _qubit_scenario(postselect=[[0.6, 0.0], [0.0, -0.8]])
        setup, _ = parse_scenario(data)
        assert setup.postselection.matrix[0, 1] == approx(0.48j, abs=1e-12)


class TestFieldPathErrors:
    @pytest.mark.parametrize(
        "mangle,fragment",
        [
            (lambda d: d.__setitem__("observable", 7), "observable"),
            (lambda d: d["observable"][0].__setitem__(1, [0.0, "x"]), "observable[0][1][1]"),
            (lambda d: d.__setitem__("preselect", [[1.0, 0.0]]), "preselect"),
            (lambda d: d.__setitem__("g", "strong"), "g"),
            (lambda d: d.pop("delta"), "delta"),
            (lambda d: d.__setitem__("extra", 1), "extra"),
        ],
    )
    def test_error_names_offending_field(self, mangle, fragment):
        data = _qubit_scenario()
        mangle(data)
        with pytest.raises(ValidationError, match=fragment.replace("[", r"\[")):
            parse_scenario(data)

    def test_dimension_must_be_positive_int(self):
        with pytest.raises(ValidationError, match="dimension"):
            parse_scenario(_qubit_scenario(dimension=2.5))

    def test_nonhermitian_observable(self):
        bad = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(ValidationError):
            parse_scenario(_qubit_scenario(observable=bad))

    def test_unnormalized_preselect_vector(self):
        with pytest.raises(ValidationError):
            parse_scenario(_qubit_scenario(preselect=[[1.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("key, path", [
        ("g", "g"), ("delta", "delta"),
        ("observable", "observable[0][0][0]"), ("preselect", "preselect[1][1]"),
    ])
    def test_an_integer_past_the_double_range_names_its_field(self, key, path):
        data = _qubit_scenario()
        huge = -(10**400) if key == "g" else 10**400
        if key == "observable":
            data[key][0][0][0] = huge
        elif key == "preselect":
            data[key][1][1] = huge
        else:
            data[key] = huge
        with pytest.raises(ValidationError, match=rf"^{re.escape(path)}: integer of 1329 bits lies beyond"):
            parse_scenario(data)

    def test_grid_rejects_odd_point_count(self):
        data = _qubit_scenario(pointer_grid={"half_width": 12.0, "num_points": 2000})
        with pytest.raises(ValidationError):
            parse_scenario(data)


class TestRoundTrip:
    def test_setup_survives_json(self, tmp_path):
        setup = MeasurementSetup(
            HermitianObservable(np.array([[0.25, 1j], [-1j, -0.5]])),
            StateVector.normalized([1.0, 0.3 - 0.4j]).density(),
            StateVector.normalized([0.2j, 1.0]).projector(),
            g=0.8125,
            pointer=GaussianPointer(0.75),
        )
        path = tmp_path / "case.json"
        path.write_text(json.dumps(setup_to_json(setup)))
        again, grid = load_scenario(path)
        assert grid is None
        np.testing.assert_array_equal(again.observable.matrix, setup.observable.matrix)
        np.testing.assert_array_equal(again.preselection.matrix, setup.preselection.matrix)
        np.testing.assert_array_equal(again.postselection.matrix, setup.postselection.matrix)
        assert again.g == setup.g
        assert again.pointer.delta == setup.pointer.delta

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_scenario(tmp_path / "absent.json")

    @pytest.mark.parametrize("digits", [641, 5001])
    def test_an_over_long_integer_literal_is_refused_as_it_is_read(self, tmp_path, digits):
        """Past 640 digits, in any field; past 4300, int() itself would raise."""
        path = tmp_path / "long.json"
        for key in ("dimension", "g"):
            text = json.dumps(_qubit_scenario(**{key: 7})).replace(f'"{key}": 7', f'"{key}": ' + "9" * digits)
            path.write_text(text)
            with pytest.raises(ValidationError, match=f"^scenario: an integer literal of {digits} digits exceeds 640"):
                load_scenario(path)

    def test_integers_up_to_the_limit_load(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(_qubit_scenario(delta=1)).replace('"delta": 1', '"delta": 1' + "0" * 300))
        setup, _ = load_scenario(path)
        assert setup.pointer.delta == 1e300
        path.write_text(json.dumps(_qubit_scenario()).replace('"g": 0.05', '"g": -' + "9" * 640))
        with pytest.raises(ValidationError, match="^g: integer of 2127 bits"):
            load_scenario(path)

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_scenario(path)
