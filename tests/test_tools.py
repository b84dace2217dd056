"""The verdict logic of tools/ab.py on synthetic pairs, its diff of two
synthetic records, and the library searches its outputs mode compares: no
benchmark runs here."""

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

HIGHER = {"name": "throughput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25}
# ten base runs whose quartiles lie 1.5% of the median apart
BASE = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def _scaled(factor, base=BASE):
    return [factor * x for x in base]


@pytest.mark.parametrize("metric, factor", [(HIGHER, 1.1), (LOWER, 0.9)])
def test_a_clear_gain_in_either_direction_is_better(metric, factor):
    got = ab.compare(metric, BASE, _scaled(factor))
    assert (got["verdict"], got["wins"], got["pairs"]) == ("better", 10, 10)
    assert got["gain"] == pytest.approx(0.1)
    assert got["base_iqr_share"] == pytest.approx(0.015)


@pytest.mark.parametrize("metric, factor", [(HIGHER, 0.7), (LOWER, 1.3)])
def test_a_loss_beyond_the_bound_is_worse(metric, factor):
    got = ab.compare(metric, BASE, _scaled(factor))
    assert (got["verdict"], got["wins"]) == ("worse", 0)
    assert got["gain"] == pytest.approx(-0.3)


@pytest.mark.parametrize("metric, factor", [(HIGHER, 0.8), (LOWER, 1.2)])
def test_a_loss_within_the_bound_is_flat(metric, factor):
    assert ab.compare(metric, BASE, _scaled(factor))["verdict"] == "flat"


def test_a_base_spread_beyond_the_bound_is_unresolved():
    base = [60.0, 140.0, 100.0, 50.0, 150.0, 70.0, 130.0, 100.0, 55.0, 145.0]
    for head in (_scaled(2.0, base), _scaled(0.5, base)):
        got = ab.compare(HIGHER, base, head)
        assert got["base_iqr_share"] > HIGHER["bound"]
        assert got["verdict"] == "unresolved"


@pytest.mark.parametrize("losses, verdict", [(0, "better"), (1, "better"), (2, "flat")])
def test_a_gain_must_win_nine_pairs_in_ten(losses, verdict):
    head = _scaled(1.1)
    head[:losses] = BASE[:losses]  # a tie wins for neither side
    got = ab.compare(HIGHER, BASE, head)
    assert (got["wins"], got["verdict"]) == (10 - losses, verdict)


@pytest.mark.parametrize("factor, verdict", [(1.005, "flat"), (1.02, "better")])
def test_a_gain_must_exceed_the_base_interquartile_range(factor, verdict):
    got = ab.compare(HIGHER, BASE, _scaled(factor))
    assert got["wins"] == 10
    assert got["verdict"] == verdict


def test_the_report_carries_both_sides_quartiles():
    got = ab.compare(LOWER, BASE, _scaled(0.9))
    assert (got["base"]["median"], got["base"]["q1"], got["base"]["q3"]) == (100.0, 99.25, 100.75)
    assert got["head"]["runs"] == _scaled(0.9)
    assert (got["unit"], got["better"], got["bound"]) == ("s", "lower", 0.25)


@pytest.mark.parametrize("text, seeds", [("1-10", list(range(1, 11))), ("231-232", [231, 232])])
def test_seeds_parse_an_inclusive_range(text, seeds):
    assert ab._seeds(text) == seeds


@pytest.mark.parametrize("text", ["5", "5-5", "7-3"])
def test_fewer_than_two_seeds_are_refused(text):
    with pytest.raises(argparse.ArgumentTypeError):
        ab._seeds(text)


@pytest.mark.parametrize("text", ["x", "1-y", ""])
def test_seeds_that_are_not_integers_are_refused(text):
    with pytest.raises(ValueError):
        ab._seeds(text)


def _record(tmp_path, name, factor, gauge):
    """A benchmark record as `--record` writes it, with one workload whose
    op times are `factor` times a base and read at speed `gauge`."""

    def spread(x, unit=None):
        return {**({"unit": unit} if unit else {}), "median": x, "q1": x, "q3": x, "runs": [x] * 3}

    unscaled = {"setup_s": 0.2 * factor, "throughput_ops_s": 5.0 / factor}
    record = {
        "commit": f"{name:0<40}",
        "workloads": {"cli": {
            "metrics": {"setup_s": spread(unscaled["setup_s"] / gauge, "s"),
                        "throughput_ops_s": spread(unscaled["throughput_ops_s"] * gauge, "ops/s"),
                        "peak_rss_mb": spread(40.0, "MB")},
            "unscaled": {m: spread(x) for m, x in unscaled.items()},
            "gauge": [{"seed": seed, "readings": 20, "median": gauge, "setup": [gauge, 1.5 * gauge, gauge]}
                      for seed in (1, 2, 3)],
        }},
        "tier1": {"median_wall_s": 30.0 * factor, "runs": []},
        "verify": {"median_wall_s": 7.0 * factor, "runs": []},
    }
    path = tmp_path / f"BENCH_{name}.json"
    path.write_text(json.dumps(record))
    return path


def test_diff_shows_scaled_and_unscaled_medians_with_their_gauges(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a = json.loads(_record(tmp_path, "a", 1.0, 0.9).read_text())
    b = json.loads(_record(tmp_path, "b", 0.8, 1.2).read_text())
    got = ab.diff(a, b, spec)
    cli = got["workloads"]["cli"]
    assert list(cli) == ["setup_s", "throughput_ops_s", "peak_rss_mb"]
    setup = cli["setup_s"]
    assert (setup["a"], setup["b"]) == pytest.approx((0.2 / 0.9, 0.16 / 1.2))
    assert setup["change"] == pytest.approx(1.0 - 0.16 / 1.2 / (0.2 / 0.9))  # lower is better
    assert setup["unscaled"] == pytest.approx([0.2, 0.16])
    assert setup["gauge"] == [0.9, 1.2]  # the median of the set-up readings
    throughput = cli["throughput_ops_s"]
    assert throughput["change"] == pytest.approx((5.0 / 0.8 * 1.2) / (5.0 * 0.9) - 1.0)
    assert throughput["gauge"] == [0.9, 1.2]
    assert cli["peak_rss_mb"]["unscaled"] == [None, None] and cli["peak_rss_mb"]["gauge"] == [None, None]
    assert got["walls"]["tier1"] == {"a": 30.0, "b": 24.0, "change": pytest.approx(0.2)}
    assert got["walls"]["verify"]["change"] == pytest.approx(0.2)


def test_diff_prints_every_row_and_runs_nothing(tmp_path):
    paths = [str(_record(tmp_path, name, f, 1.0)) for name, f in (("a", 1.0), ("b", 0.5))]
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), "--diff", *paths],
                          capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in proc.stdout.splitlines()}
    assert rows[("cli", "setup_s")] == ["(s)", "0.2", "0.1", "+50.0%", "0.2", "0.1", "1", "1"]
    assert rows[("cli", "throughput_ops_s")][1:4] == ["5", "10", "+100.0%"]
    assert rows[("tier1", "median")] == ["wall", "(s)", "30", "15", "+50.0%"]
    assert not (tmp_path / "perfbench").exists()


def test_the_outputs_include_seeded_library_searches_up_to_k_8():
    """The search set runs in this tree: one line per search, K up to 8, and
    each observable object at several couplings."""
    label, argv = ab._commands()[-1]
    assert label == "optimize_pps searches"
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=ab._env(ROOT), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == ab.SEARCH_OBSERVABLES * ab.SEARCH_COUPLINGS
    heads = [line.split(":")[0].split() for line in lines]  # observable n d=.. K=.. search m g=..
    assert {head[3] for head in heads} == {f"K={k}" for k in range(2, 9)}
    per_observable = {}
    for head in heads:
        per_observable.setdefault(head[1], set()).add(head[6])
    assert all(len(couplings) == ab.SEARCH_COUPLINGS for couplings in per_observable.values())
    # four ExtremePair floats and two amplitude byte strings, or the refusal
    fields = [line.split(": ", 1)[1].split() for line in lines]
    assert all(len(f) == 6 or f[0] == "UndefinedExtremeError" for f in fields)


def test_a_changed_search_byte_is_reported(monkeypatch, capsys):
    base = {"optimize_pps searches": (0, ["observable 0 d=2 K=2 search 0 g=1.0: 1.0 0.0 0.5 -0.5 00ff 0100"])}
    head = {"optimize_pps searches": (0, ["observable 0 d=2 K=2 search 0 g=1.0: 1.0 0.0 0.5 -0.5 01ff 0100"])}
    sides = iter([base, head])
    monkeypatch.setattr(ab, "_outputs", lambda tree: next(sides))
    assert ab.outputs(ROOT, ROOT) == 1
    out = capsys.readouterr().out
    assert "optimize_pps searches: line 1:" in out and out.rstrip().endswith("1 differ")
