"""Self-tests of the benchmark: a few ops of every workload at the size it
runs at, every check rejecting a wrong value, the tracer, and the refusal to
run without sources.

    python -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

import weakmeter as wm  # noqa: E402

import gauge  # noqa: E402
import reference as ref  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _ops(work, ks):
    """(input, output) for each k, asserting every check passes."""
    done = []
    for k in ks:
        x = work.make_input(k)
        out = work.run(x)
        assert work.check(x, out) is None, (k, work.check(x, out))
        done.append((x, out))
    return done


# ---------------------------------------------------------------- stream

@pytest.fixture(scope="module")
def stream_ops():
    work = workloads.Stream(seed=7)
    done = _ops(work, range(64))
    return work, done


def _orthogonal_k(work):
    return next(k for k in range(64, 2000) if work.make_input(k)["orthogonal"])


def test_stream_run_covers_every_branch(stream_ops):
    work, done = stream_ops
    assert any(x["grid"] and out[5] is not None for x, out in done)
    assert any(x["weak"] and out[4] is not None for x, out in done)
    (x, out), = _ops(work, [_orthogonal_k(work)])
    assert out == (None,) * 6


def _first(done, key):
    return next((x, out) for x, out in done if x[key] and not x["orthogonal"])


def _accepted(done):
    return next((x, out) for x, out in done if not x["orthogonal"])


@pytest.mark.parametrize("field", ["delta_q", "delta_p"])
def test_stream_rejects_a_wrong_exact_shift(stream_ops, field):
    work, done = stream_ops
    x, out = _accepted(done)
    shifts = out[2]
    wrong = dataclasses.replace(shifts, **{field: getattr(shifts, field) * (1 + 1e-6) + 1e-7})
    assert work.check(x, (out[0], out[1], wrong, *out[3:])) is not None


def test_stream_rejects_wrong_moments_gap_and_second_order(stream_ops):
    work, done = stream_ops
    x, out = _accepted(done)
    moments, gap, shifts, second, report, grid = out
    aw = moments.weak_value.as_complex
    wrong_moments = dataclasses.replace(moments, weak_value=wm.WeakValue.from_complex(aw * (1 - 1e-4)))  # keeps the Schwarz inequality
    assert work.check(x, (wrong_moments, gap, shifts, second, report, grid)) is not None
    assert work.check(x, (moments, gap + 1e-6, shifts, second, report, grid)) is not None
    assert work.check(x, (moments, -1e-3, shifts, second, report, grid)) is not None
    wrong_second = (second[0] + 1e-6, second[1])
    assert work.check(x, (moments, gap, shifts, wrong_second, report, grid)) is not None


def test_stream_rejects_a_wrong_grid_and_bound_report(stream_ops):
    work, done = stream_ops
    x, out = _first(done, "grid")
    grid = dataclasses.replace(out[5], delta_q=out[5].delta_q + 1e-6 * x["delta"])
    assert work.check(x, (*out[:5], grid)) is not None
    x, out = _first(done, "weak")
    report = dataclasses.replace(out[4], satisfied=not out[4].satisfied)
    assert work.check(x, (*out[:4], report, out[5])) is not None


def test_stream_rejects_a_missed_or_spurious_orthogonal_outcome(stream_ops):
    work, done = stream_ops
    x, out = _accepted(done)
    assert work.check(x, (None,) * 6) is not None
    assert work.check(x, (out[0], None, None, None, None, None)) is not None
    orthogonal = work.make_input(_orthogonal_k(work))
    assert work.check(orthogonal, out) is not None
    assert work.check(orthogonal, (None, None, out[2], None, None, None)) is not None


def test_orthogonal_inputs_move_exact_shifts_useful_frac():
    work = workloads.Stream(seed=7)
    spans = tracer.Tracer()
    spans.install()
    try:
        _ops(work, [_orthogonal_k(work), 0])
    finally:
        spans.uninstall()
    exact = tracer.layer_totals(spans.spans)["exactengine.exact_shifts"]
    assert exact["calls"] >= 2 and exact["returned"] == exact["calls"] - 1


@pytest.mark.xfail(strict=True, reason="known defect: the weight-matrix branch of exact_shifts "
                   "tests its imaginary residue before the orthogonality floor")
def test_exact_shifts_rejects_a_rank2_selection_orthogonal_at_every_coupling():
    basis = workloads._haar(np.random.default_rng(3), 4)
    psi = basis[:, 0]
    pi = basis[:, 2:] @ basis[:, 2:].conj().T
    a_mat = (basis * np.array([-1.0, 0.3, 0.5, 1.0])) @ basis.conj().T
    setup = wm.MeasurementSetup(
        wm.HermitianObservable((a_mat + a_mat.conj().T) / 2), wm.DensityOperator(np.outer(psi, psi.conj())),
        wm.ProjectionOperator((pi + pi.conj().T) / 2), 1.0, wm.GaussianPointer(1.0))
    with pytest.raises(wm.OrthogonalSelectionError):
        wm.exact_shifts(setup)


# ---------------------------------------------------------------- sweep

@pytest.fixture(scope="module")
def sweep_ops():
    work = workloads.Sweep(seed=7)
    return work, _ops(work, range(3))  # one op of each kind


def test_sweep_rejects_wrong_points(sweep_ops):
    work, done = sweep_ops
    hardy_x, hardy = done[0]
    bad = list(hardy)
    bad[3] = dataclasses.replace(bad[3], prob_nono=bad[3].prob_nono + 1e-9)
    assert work.check(hardy_x, bad) is not None
    assert work.check(hardy_x, hardy[:-1]) is not None
    info_x, info = done[1]
    bad = list(info)
    bad[5] = dataclasses.replace(bad[5], i_a=bad[5].i_a * (1 + 1e-6))
    assert work.check(info_x, bad) is not None
    bad = list(info)
    bad[5] = dataclasses.replace(bad[5], q_min=bad[5].q_min * (1 + 1e-6))
    assert work.check(info_x, bad) is not None
    exact_x, exact = done[2]
    bad = list(exact)
    bad[4] = dataclasses.replace(bad[4], delta_q=bad[4].delta_q + 1e-6 * exact_x["delta"])
    assert work.check(exact_x, bad) is not None


# ---------------------------------------------------------------- extremal

@pytest.fixture(scope="module")
def extremal_ops():
    work = workloads.Extremal(seed=7)
    return work, _ops(work, range(2))  # a d = 2 projector, then a d = 3 Hermitian case


def test_extremal_rejects_a_miss(extremal_ops):
    work, ((proj_x, proj), (herm_x, herm)) = extremal_ops
    assert proj_x["projector"] and not herm_x["projector"]
    scale = max(proj_x["delta"], proj_x["g"])
    assert work.check(proj_x, dataclasses.replace(proj, optimizer_best_min=proj.optimizer_best_min + 1e-6 * scale)) is not None
    assert work.check(proj_x, dataclasses.replace(proj, optimizer_best_max=proj.optimizer_best_max - 1e-6 * scale)) is not None
    short = herm_x["envelope"][0] - 1e-3
    assert work.check(herm_x, dataclasses.replace(herm, optimizer_best_max=short)) is not None


def test_random_search_reference_is_a_lower_bound_on_the_envelope():
    a_mat = np.diag([1.0, 0.0]).astype(complex)
    q_max, q_min = ref.random_search_extremes(a_mat, 1.0, 1.0, np.random.default_rng(0))
    env_max, env_min = ref.projector_envelope(1.0, 1.0)
    assert env_min <= q_min < q_max <= env_max


# ---------------------------------------------------------------- cli

@pytest.fixture(scope="module")
def cli_ops(tmp_path_factory):
    work = workloads.Cli(7, tmp_path_factory.mktemp("scenarios"))
    return work, _ops(work, range(len(work.SLOTS)))


def _cli_case(cli_ops, slot):
    work, done = cli_ops
    return work, next((x, out) for x, out in done if x["slot"] == slot)


def test_cli_rejects_a_nonzero_exit_code(cli_ops):
    work, (x, (code, stdout, stderr)) = _cli_case(cli_ops, "verify")
    assert work.check(x, (1, stdout, stderr)) is not None
    assert work.check(x, (0, stdout.replace("PASS", "FAIL"), stderr)) is not None


@pytest.mark.parametrize("key", ["delta_q_grid", "delta_q_exact", "weak_value_re", "delta_p_second_order"])
def test_cli_rejects_a_wrong_run_line(cli_ops, key):
    work, (x, (code, stdout, stderr)) = _cli_case(cli_ops, "run:hardy_nono.json")
    lines = []
    for line in stdout.splitlines():
        k, sep, v = line.partition(" = ")
        if k.strip() == key:
            line = f"{k}{sep}{float(v) + 1e-6!r}"
        lines.append(line)
    assert work.check(x, (0, "\n".join(lines) + "\n", stderr)) is not None


def test_cli_rejects_a_wrong_csv_value(cli_ops):
    for slot in ("hardy-sweep", "info-sweep"):
        work, (x, (code, stdout, stderr)) = _cli_case(cli_ops, slot)
        lines = stdout.splitlines()
        cells = lines[4].split(",")
        cells[2] = repr(float(cells[2]) + 1e-6)
        lines[4] = ",".join(cells)
        assert work.check(x, (0, "\n".join(lines) + "\n", stderr)) is not None


# ---------------------------------------------------------------- tracer and stats

def test_tracer_patches_every_binding_and_restores_them():
    import weakmeter.cli
    import weakmeter.hardy

    original = weakmeter.hardy.exact_shifts
    spans = tracer.Tracer()
    spans.install()
    try:
        assert weakmeter.hardy.exact_shifts is not original
        assert weakmeter.cli.exact_shifts is weakmeter.exactengine.exact_shifts
        assert wm.exact_shifts is weakmeter.exactengine.exact_shifts
        wm.probability_curve(0.1, 1.0, 3)
    finally:
        spans.uninstall()
    assert weakmeter.hardy.exact_shifts is original
    totals = tracer.layer_totals(spans.spans)
    assert totals["hardy.probability_curve"]["calls"] == 1
    assert totals["hardy.hardy_probabilities"]["calls"] == 3
    assert totals["exactengine.exact_shifts"]["calls"] == 12
    assert totals["exactengine.MeasurementSetup"]["calls"] == 12
    curve = totals["hardy.probability_curve"]
    assert 0.0 < curve["self"] < curve["busy"]


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("cli.main", 0.0, 10.0, -1, 0, True),
        ("verify.run_suites", 1.0, 9.0, 0, 0, True),
        ("exactengine.exact_shifts", 2.0, 5.0, 1, 0, False),
    ]
    totals = tracer.layer_totals(spans)
    assert totals["cli.main"]["self"] == 2.0
    assert totals["verify.run_suites"]["self"] == 5.0
    assert totals["exactengine.exact_shifts"] == {"calls": 1, "returned": 0, "busy": 3.0, "self": 3.0}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    stats = bench.latency_stats([float(i) for i in range(100)])
    assert stats["tail_s"] == 89.0 and stats["tail_beyond"] == 10
    assert stats["tail_percentile"] == 90.0
    short = bench.latency_stats([3.0, 1.0, 2.0])
    assert short["tail_s"] == 3.0 and short["tail_beyond"] == 0


def test_gauge_scale_uses_the_median_of_the_nearest_readings():
    readings = [(float(t), float(r)) for t, r in enumerate([1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2])]
    early, middle, late = gauge.scales([0.2, 5.4, 10.0], readings)
    assert early == 1.0  # readings at t = 0..4
    assert middle == 0.5  # t = 3..7: three of five read 2
    assert late == 0.5
    assert gauge.scales([3.0], readings[:2]) == [1.0]  # fewer than NEAREST: all of them


def test_end_to_end_times_are_scaled_by_the_gauges():
    # the ops ran at half the reference speed
    run = {"samples": [0.2, 0.4, 0.6], "cpu": [0.2, 0.4, 0.6], "mids": [1.0, 2.0, 3.0],
           "gauge": [(0.0, 2.0), (4.0, 2.0)], "failures": [], "window_s": 4.0}
    # set-ups of 0.8 s at half speed, 0.5 s between, then 0.6 s at full speed
    metrics, details = bench.end_to_end(run, [0.8, 0.5, 0.6], [2.0, 2.0, 1.0, 1.0], 80.0)
    assert metrics["latency_p50_s"][0] == pytest.approx(0.2)
    assert metrics["cpu_per_op_s"][0] == pytest.approx(0.2)
    assert metrics["throughput_ops_s"][0] == pytest.approx(5.0)
    assert metrics["setup_s"][0] == pytest.approx(0.4)  # median of 0.4, 0.333 and 0.6
    assert details["unscaled"]["latency_p50_s"] == 0.4
    assert details["unscaled"]["setup_s"] == 0.6


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
