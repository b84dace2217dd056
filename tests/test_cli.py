"""Command-line surface: output contracts, determinism, exit codes."""

import json
import math
import subprocess
import sys
import tracemalloc
from importlib import resources

import pytest
from pytest import approx

from weakmeter.cli import _fmt, main
from weakmeter.exactengine import MAX_SWEEP_POINTS


# non-Hermitian, with opposite-sign entries whose difference overflows
_ASYMMETRIC = [[[0.0, 0.0], [1e308, 0.0]], [[-1e308, 0.0], [0.0, 0.0]]]


def _parse_report(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        out[key.strip()] = value
    return out


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_bundled_interference_scenario(self, capsys):
        code, out, _ = _run(capsys, "run", "hardy_nono.json")
        assert code == 0
        report = _parse_report(out)
        assert float(report["weak_value_re"]) == approx(-1.0, rel=1e-12)
        assert float(report["delta_q_exact"]) == approx(-0.52039956298959116151, rel=1e-12)
        # the scenario carries a pointer_grid, so the oracle rows appear
        assert float(report["delta_q_grid"]) == approx(
            float(report["delta_q_exact"]), abs=1e-8
        )
        assert float(report["postselect_prob"]) == approx(0.1225010324718016, rel=1e-10)

    def test_first_and_second_order_rows(self, capsys):
        code, out, _ = _run(capsys, "run", "anomalous_qubit.json")
        assert code == 0
        report = _parse_report(out)
        assert float(report["weak_value_re"]) == approx(-3.0, rel=1e-10)
        assert float(report["delta_q_first_order"]) == approx(-0.15, rel=1e-10)
        assert float(report["delta_q_second_order"]) == approx(-0.15 / 1.0075, rel=1e-10)
        assert "delta_q_grid" not in report

    def test_zero_coupling_prints_no_signed_zeros(self, capsys, tmp_path):
        """At g = 0 the shifts are g times a negative ratio, -0.0 in IEEE
        arithmetic; the report prints them as 0."""
        text = resources.files("weakmeter").joinpath("scenarios", "anomalous_qubit.json").read_text()
        path = tmp_path / "case.json"
        path.write_text(json.dumps({**json.loads(text), "g": 0.0}))
        code, out, _ = _run(capsys, "run", str(path))
        assert code == 0
        report = _parse_report(out)
        for key in ("delta_q_exact", "delta_q_first_order", "delta_q_second_order"):
            assert report[key] == "0"
        assert "-0" not in report.values()
        assert _fmt(-0.0) == _fmt(0.0) == "0"

    def test_scenario_file_from_disk(self, capsys, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(
            json.dumps(
                {
                    "dimension": 2,
                    "observable": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                    "preselect": [[1.0, 0.0], [0.0, 0.0]],
                    "postselect": [[1.0, 0.0], [0.0, 0.0]],
                    "g": 0.3,
                    "delta": 1.0,
                }
            )
        )
        code, out, _ = _run(capsys, "run", str(path))
        assert code == 0
        assert float(_parse_report(out)["delta_q_exact"]) == approx(0.3, rel=1e-12)

    def test_missing_scenario_exits_2(self, capsys):
        code, _, err = _run(capsys, "run", "no_such_scenario.json")
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_scenario_names_field(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        data = {
            "dimension": 2,
            "observable": [[[1.0, 0.0], [0.0, "x"]], [[0.0, 0.0], [0.0, 0.0]]],
            "preselect": [[1.0, 0.0], [0.0, 0.0]],
            "postselect": [[1.0, 0.0], [0.0, 0.0]],
            "g": 0.3,
            "delta": 1.0,
        }
        path.write_text(json.dumps(data))
        code, _, err = _run(capsys, "run", str(path))
        assert code == 2
        assert "observable[0][1][1]" in err

    def test_orthogonal_selection_exits_3(self, capsys, tmp_path):
        path = tmp_path / "orth.json"
        data = {
            "dimension": 2,
            "observable": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "preselect": [[1.0, 0.0], [0.0, 0.0]],
            "postselect": [[0.0, 0.0], [1.0, 0.0]],
            "g": 0.3,
            "delta": 1.0,
        }
        path.write_text(json.dumps(data))
        code, _, err = _run(capsys, "run", str(path))
        assert code == 3
        assert err.startswith("error:")


class TestSweepCSV:
    def test_header_units_and_roundtrip(self, capsys):
        code, out, _ = _run(
            capsys, "hardy-sweep", "--g-min", "0.001", "--g-max", "10", "--points", "7"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# units:")
        assert lines[1] == "g,prob_oo,prob_ono,prob_noo,prob_nono"
        assert len(lines) == 2 + 7
        assert "\r" not in out
        for line in lines[2:]:
            for token in line.split(","):
                # 17 significant digits reproduce the double exactly
                assert format(float(token), ".17g") == token

    def test_endpoint_values(self, capsys):
        _, out, _ = _run(
            capsys, "hardy-sweep", "--g-min", "0.001", "--g-max", "10", "--points", "5"
        )
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert float(rows[0][4]) == approx(-0.99999925000042187476, rel=1e-9)
        assert float(rows[-1][4]) == approx(0.19999910560057220795, rel=1e-9)

    def test_byte_identical_between_runs(self, capsys, tmp_path):
        args = ["hardy-sweep", "--points", "25", "--out"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")

    def test_info_sweep_columns(self, capsys):
        code, out, _ = _run(
            capsys, "info-sweep", "--g-min", "0.01", "--g-max", "10", "--points", "5"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "g,lambda,i_a_bits,q_min"
        assert "i_a_bits=bits" in lines[0]
        last = lines[-1].split(",")
        assert float(last[2]) == approx(0.99999999998998196613, rel=1e-9)

    def test_info_sweep_requires_positive_start(self, capsys):
        code, _, err = _run(capsys, "info-sweep", "--g-min", "0")
        assert code == 2
        assert "g-min" in err

    def test_info_sweep_refuses_couplings_below_the_threshold(self, capsys):
        """1 - G is subnormal at g = 1e-161 Delta: the q_min column cannot be
        told from its g = 0 limit, so info-sweep refuses as bounds-optimize does."""
        code, out, err = _run(capsys, "info-sweep", "--g-min", "1e-161", "--g-max", "2e-161", "--points", "2")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1, err


class TestBoundsOptimize:
    def test_report_and_determinism(self, capsys, tmp_path):
        args = ["bounds-optimize", "--dim", "2", "--g", "1.0", "--out"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        report = _parse_report(a.read_text())
        assert float(report["envelope_q_max"]) == approx(1.5631100206690507985, rel=1e-12)
        assert float(report["gap_relative"]) < 5e-3
        assert len(report["preselect_re"].split()) == 2

    def test_identity_observable_is_flat(self, capsys):
        code, out, _ = _run(capsys, "bounds-optimize", "--observable", "identity", "--g", "0.7")
        assert code == 0
        report = _parse_report(out)
        assert float(report["envelope_q_max"]) == approx(0.7, rel=1e-14)
        assert float(report["best_delta_q_max"]) == approx(0.7, rel=1e-14)
        assert float(report["gap_to_envelope"]) == approx(0.0, abs=1e-15)


class TestExtremeScales:
    """Finite but extreme couplings and widths end in a result or a clean
    input error, never in a Python traceback."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--g", "1e200"],
            ["--g", "1e300"],
            ["--g", "1e-155"],
            ["--g", "1e-200"],
            ["--delta", "1e200"],
            ["--delta", "1e-200"],
            ["--g", "1e200", "--delta", "1e-200"],
        ],
        ids=lambda flags: " ".join(flags),
    )
    def test_bounds_optimize_exits_cleanly(self, flags):
        proc = subprocess.run(
            [sys.executable, "-m", "weakmeter.cli", "bounds-optimize", *flags],
            capture_output=True,
            text=True,
        )
        assert proc.returncode in (0, 2), proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "" or proc.stderr.startswith("error:")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["hardy-sweep", "--g-min", "1e-3", "--g-max", "1e300", "--points", "5"],
            ["info-sweep", "--g-max", "1e200"],
            # the gain must rise onto 1 bit without rounding wiggles
            ["info-sweep", "--g-min", "0.01", "--g-max", "40", "--points", "1000"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_sweeps_saturate_cleanly(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert rows and all(math.isfinite(float(x)) for row in rows for x in row)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("g,expected", [(1e300, 2), (1e-300, 0)])
    def test_run_with_large_eigenvalues(self, capsys, tmp_path, g, expected):
        """g (a - a') / delta overflows for eigenvalues +-1e10 at g = 1e300:
        the overlap saturates without a warning, and the shift, beyond the
        double range, is an input error."""
        path = tmp_path / "case.json"
        path.write_text(json.dumps({
            "dimension": 2,
            "observable": [[[1e10, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e10, 0.0]]],
            "preselect": [[0.6, 0.0], [0.8, 0.0]],
            "postselect": [[0.6, 0.0], [-0.8, 0.0]],
            "g": g,
            "delta": 1.0,
        }))
        code, _, err = _run(capsys, "run", str(path))
        assert code == expected
        assert err == "" or err.startswith("error:")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "scale,message",
        [
            (1e200, "error: weak moments: observable level magnitude 1e+200 exceeds 1e153"),
            (1e308, "error: observable: symmetrized entries overflow"),
            (1.7e308, "error: observable: symmetrized entries overflow"),
        ],
    )
    def test_run_with_a_huge_observable_exits_2(self, capsys, tmp_path, scale, message):
        """diag(s, -s): past 1e153 the weak moments overflow, past half the
        double range so does the symmetrized observable; both are bad input."""
        text = resources.files("weakmeter").joinpath("scenarios", "anomalous_qubit.json").read_text()
        path = tmp_path / "case.json"
        observable = [[[scale, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-scale, 0.0]]]
        path.write_text(json.dumps({**json.loads(text), "observable": observable}))
        code, out, err = _run(capsys, "run", str(path))
        assert code == 2 and out == ""
        assert err.startswith(message) and err.count("\n") == 1, err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "field,matrix,message",
        [
            ("postselect", [[[0, 0], [1e200, 1e200]], [[1e200, -1e200], [0, 0]]],
             "error: postselect: projector: not idempotent (entry of modulus"),
            ("observable", _ASYMMETRIC, "error: observable: not Hermitian (max asymmetry inf"),
            ("preselect", _ASYMMETRIC, "error: preselect: density operator: not Hermitian (max asymmetry inf"),
            ("postselect", _ASYMMETRIC, "error: postselect: projector: not Hermitian (max asymmetry inf"),
        ],
        ids=["huge non-projector", "asymmetric observable", "asymmetric preselect", "asymmetric postselect"],
    )
    def test_run_with_a_matrix_past_the_double_range_exits_2(self, capsys, tmp_path, field, matrix, message):
        """m @ m of the huge non-projector and m - m^H of the asymmetric
        matrix overflow; each is refused as bad input, without a warning."""
        text = resources.files("weakmeter").joinpath("scenarios", "anomalous_qubit.json").read_text()
        path = tmp_path / "case.json"
        path.write_text(json.dumps({**json.loads(text), field: matrix}))
        code, out, err = _run(capsys, "run", str(path))
        assert code == 2 and out == ""
        assert err.startswith(message) and err.count("\n") == 1, err

    @pytest.mark.parametrize("dim", ["-1", "0"])
    def test_bounds_optimize_rejects_dimensions_below_two(self, capsys, dim):
        code, _, err = _run(capsys, "bounds-optimize", f"--dim={dim}")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("delta", [1e-300, 1e-200, 1e-8, 1.0, 1e200, 1e300])
    @pytest.mark.parametrize("g", [0.0, 1e-300, 0.05, 1e150, 1e200, 1e300])
    def test_run_at_extreme_couplings_and_widths(self, capsys, tmp_path, g, delta):
        """Each pair gives finite numbers (exit 0) or a clean input error (exit 2)."""
        text = resources.files("weakmeter").joinpath("scenarios", "anomalous_qubit.json").read_text()
        path = tmp_path / "case.json"
        path.write_text(json.dumps({**json.loads(text), "g": g, "delta": delta}))
        code, out, err = _run(capsys, "run", str(path))
        if code == 0:
            values = [v for k, v in _parse_report(out).items() if k not in ("scenario", "dimension")]
            assert all(math.isfinite(float(v)) for v in values), out
        else:
            assert code == 2 and err.startswith("error:"), (code, err)


class TestOutputAndSizeErrors:
    """An output path that cannot be written and a sweep too large to hold
    are bad input: exit 2 with one `error:` line, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["hardy-sweep", "--points", "5"],
            ["info-sweep", "--points", "5"],
            ["bounds-optimize"],
        ],
        ids=["hardy-sweep", "info-sweep", "bounds-optimize"],
    )
    @pytest.mark.parametrize("target", ["missing/out.txt", "."], ids=["missing dir", "a directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, argv, target):
        out = tmp_path / target
        code, stdout, err = _run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert err.startswith("error: cannot write") and err.count("\n") == 1, err
        assert stdout == ""

    @pytest.mark.parametrize("command", ["hardy-sweep", "info-sweep"])
    @pytest.mark.parametrize("points", [MAX_SWEEP_POINTS + 1, 10**14])
    def test_points_above_the_ceiling_exit_2_allocating_nothing(self, capsys, command, points):
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, command, "--points", str(points))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith("error: points must be in 2..")
        assert peak < 1_000_000, peak

    def test_grid_points_above_the_ceiling_exit_2_allocating_nothing(self, capsys, tmp_path):
        text = resources.files("weakmeter").joinpath("scenarios", "hardy_nono.json").read_text()
        data = json.loads(text)
        data["pointer_grid"]["num_points"] = 2**40
        path = tmp_path / "case.json"
        path.write_text(json.dumps(data))
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, "run", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == ""
        assert err.startswith("error: pointer_grid: grid num_points must be a power of two in 1024..131072")
        assert peak < 1_000_000, peak

    @pytest.mark.parametrize("command", ["hardy-sweep", "info-sweep"])
    def test_points_ceiling_is_in_the_help(self, capsys, command):
        code, out, _ = _run(capsys, command, "--help")
        assert code == 0
        assert f"2..{MAX_SWEEP_POINTS}" in out


class TestVerifySubcommand:
    def test_single_suite_line_format(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "hardy")
        assert code == 0
        assert out.splitlines()[0].startswith("hardy")
        assert "PASS" in out
        assert "instances=200" in out
        assert "worst_margin=" in out


class TestFlagErrors:
    def test_unknown_subcommand(self, capsys):
        assert _run(capsys, "frobnicate")[0] == 2

    def test_bad_choice(self, capsys):
        assert _run(capsys, "hardy-sweep", "--spacing", "cubic")[0] == 2

    def test_no_subcommand(self, capsys):
        assert _run(capsys)[0] == 2


def test_console_entry_point():
    """The installed executable must behave like main()."""
    proc = subprocess.run(
        [sys.executable, "-m", "weakmeter.cli", "run", "anomalous_qubit.json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "delta_q_exact" in proc.stdout
