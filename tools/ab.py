"""Interleaved A/B of the benchmark, a byte diff of the program's outputs,
a record of this checkout's benchmark figures, and a diff of two records.

    python3 tools/ab.py --base <rev> --workload W --seeds a-b [--seconds S] [--out ab.json]
    python3 tools/ab.py --base <rev> --outputs
    python3 tools/ab.py --record BENCH_<n>.json
    python3 tools/ab.py --diff BENCH_a.json BENCH_b.json

The base tree is `git archive <rev>` unpacked into a temporary directory;
no ref, branch or worktree list is touched.  The other side is this
checkout as it stands, uncommitted edits included, or `--head <rev>`
exported the same way.

Benchmark mode runs each tree's own, unchanged perfbench/run.py untraced,
one pair per seed of a-b, for BENCHMARK.json's `run_seconds` unless
`--seconds` says otherwise.  Both runs of a pair use that seed, and the side
that goes first alternates from pair to pair, so a slow stretch of the
machine lands on both.  For every end-to-end metric of BENCHMARK.json it
prints both sides' medians and quartiles, the base's interquartile range
as a share of its median, how many pairs the head wins, and a verdict
against the metric's bound:

- unresolved: the base's own spread exceeds the bound, so no change can be told;
- worse: the head's median is worse than the base's by more than the bound;
- better: the head wins at least 9 pairs in 10, and the medians differ by
  more than the base's interquartile range;
- flat: anything else.

`--out` writes the same as JSON.

Outputs mode runs a fixed set of commands in both trees: `run` on both
bundled scenarios, the default `hardy-sweep` and `info-sweep`, a 200-point
log `hardy-sweep` over [1e-6, 1e3], `bounds-optimize` for every d in
{2, 3, 5, 8} and g in {1e-6, 0.02, 1, 1e3}, each with its default flags,
`--objective min` and `--observable identity`, the `repr` of every
`run_suites()` worst margin (the `verify` text rounds them to 3 figures),
and a fixed, seeded set of library searches (`optimize_pps`) with K up to
8, each observable object reused at several couplings: the `repr` of every
`ExtremePair` float and the bytes of its argmax amplitudes
(`bounds-optimize` reaches only K <= 2).  It names every line of stdout,
and every exit code, that differs, and exits 1 if any does.

Record mode runs every workload of BENCHMARK.json in this checkout once
per seed of SEEDS, for `run_seconds`, then times the Tier-1 suite and
`weakmeter verify` WALL_RUNS times each, interleaved, so that a slow stretch
of the machine lands on both.  It writes, with the commit and whether src/
differs from it:

- per workload and end-to-end metric, the median and quartiles over the
  seeds of the scaled figure and of the unscaled one, with every run's value;
- per run, the speed-gauge readings that scaled it;
- the python and numpy versions and the source digest the runs reported;
- whether the runs' interpreters write bytecode: without it every fresh
  interpreter compiles weakmeter from source, which `cli` ops and set-up
  pay, so `cli` walls from machines that differ in it do not compare;
- every Tier-1 and `verify` wall with its exit code, and the median of each.

Diff mode reads two records and runs nothing.  Per workload and
end-to-end metric it prints both scaled medians, the change from the first
to the second (positive where the second is better), both unscaled
medians, and the median gauge readings that scaled them: the MIXED
readings around the set-ups for `setup_s`, the workload's own gauge for
the other timings.  Then it prints the Tier-1 and `verify` walls.  Records
taken on different days compare only through these gauges; claims need
benchmark mode's pairs.

Every mode that runs the benchmark reads a run through the result.json it
writes under its tree's perfbench/out/.  Standard library only; nothing is
written under perfbench/ or to BENCHMARK.json by this tool.  A benchmark
pair takes about 40 s at the default 10 s per run, the outputs about 30 s
per tree, a record 4 to 9 minutes; run nothing else meanwhile.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# A claimed gain must win at least this share of the pairs.
WIN_SHARE = 0.9
SEEDS = (1, 2, 3)
WALL_RUNS = 3
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
VERIFY = [sys.executable, "-m", "weakmeter.cli", "verify"]

_MARGINS = (
    "from weakmeter.verify import run_suites\n"
    "for r in run_suites():\n"
    "    print(r.name, r.passed, r.instances, repr(r.worst_margin), r.detail)\n"
)

# The library searches compared: SEARCH_OBSERVABLES seeded observables, d = 2..8
# in turn (K up to 8), Hermitian, `from_projector` and projector-matrix in
# turn, each object searched at SEARCH_COUPLINGS couplings g / Delta
# log-uniform in [1e-8, 1e3], with a drawn width, objective and floor.  One
# line per search: the `repr` of every ExtremePair float and the bytes of the
# argmax amplitudes, or the UndefinedExtremeError message.
SEARCH_OBSERVABLES, SEARCH_COUPLINGS = 84, 4
_SEARCHES = f"""
import numpy as np
from weakmeter import GaussianPointer, HermitianObservable, UndefinedExtremeError, optimize_pps
from weakmeter.sampling import random_hermitian, random_projector
rng = np.random.default_rng(3300)
for n in range({SEARCH_OBSERVABLES}):
    dim, kind = 2 + n % 7, n % 3
    if kind == 0:
        obs = random_hermitian(rng, dim)
    else:
        pi = random_projector(rng, dim, int(rng.integers(1, dim)))
        obs = HermitianObservable.from_projector(pi) if kind == 1 else HermitianObservable(pi.matrix)
    for m in range({SEARCH_COUPLINGS}):
        pointer = GaussianPointer(float(rng.choice([0.5, 1.0, 2.0])))
        g = pointer.delta * float(10.0 ** rng.uniform(-8.0, 3.0))
        objective, floor = str(rng.choice(["max", "min"])), float(rng.choice([1e-14, 1e-12, 1e-8]))
        head = f"observable {{n}} d={{dim}} K={{obs.eigenvalues.size}} search {{m}} g={{g!r}}:"
        try:
            r = optimize_pps(obs, g, pointer, objective=objective, min_postselect=floor)
        except UndefinedExtremeError as exc:
            print(head, "UndefinedExtremeError", exc)
            continue
        floats = (r.q_max, r.q_min, r.optimizer_best_max, r.optimizer_best_min)
        print(head, *map(repr, floats), *(s.amplitudes.tobytes().hex() for s in r.argmax_states))
"""


def _export(rev: str, into: Path) -> Path:
    """The files of commit `rev`, unpacked under `into`."""
    proc = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: git archive {rev}: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into


def _env(tree: Path) -> dict:
    """The environment with `tree`'s src/ first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, (str(tree / "src"), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def _bench_run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run of `tree`: the result.json it writes."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0" / "result.json"
    return json.loads(result.read_text())


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(metric: dict, base: list[float], head: list[float]) -> dict:
    """Both sides of one metric over the pairs, and the verdict against its bound."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    b, h = _spread(base), _spread(head)
    iqr_share = (b["q3"] - b["q1"]) / abs(b["median"])
    gain = sign * (h["median"] - b["median"]) / abs(b["median"])
    wins = sum(sign * (y - x) > 0.0 for x, y in zip(base, head))
    if iqr_share > metric["bound"]:
        verdict = "unresolved"
    elif gain < -metric["bound"]:
        verdict = "worse"
    elif wins >= WIN_SHARE * len(base) and gain > iqr_share:
        verdict = "better"
    else:
        verdict = "flat"
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "base": b, "head": h, "gain": gain, "base_iqr_share": iqr_share,
            "wins": wins, "pairs": len(base), "verdict": verdict}


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"need two seeds or more, got {text!r}")
    return seeds


def bench(base: Path, head: Path, args: argparse.Namespace) -> dict:
    spec = json.loads((head / "BENCHMARK.json").read_text())
    metrics, args.seconds = spec["end_to_end"], args.seconds or spec["run_seconds"]
    runs = {"base": [], "head": []}
    for i, seed in enumerate(args.seeds):
        order = (("base", base), ("head", head)) if i % 2 == 0 else (("head", head), ("base", base))
        for side, tree in order:
            runs[side].append(_bench_run(tree, args.workload, seed, args.seconds))
        pair = {side: runs[side][-1]["metrics"] for side in runs}
        print(f"# pair {i + 1}/{len(args.seeds)} seed {seed}: throughput "
              f"{pair['base']['throughput_ops_s']['value']:.6g} -> {pair['head']['throughput_ops_s']['value']:.6g}",
              file=sys.stderr, flush=True)
    report = {
        "workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
        "base": args.base, "head": args.head or "working tree",
        "failed": {side: [r["failed"] for r in done] for side, done in runs.items()},
        "attempted": {side: [r["attempted"] for r in done] for side, done in runs.items()},
        "metrics": {
            m["name"]: compare(m, *([r["metrics"][m["name"]]["value"] for r in runs[side]] for side in ("base", "head")))
            for m in metrics
        },
    }
    print(f"{args.workload}: {len(args.seeds)} pairs, seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"{args.seconds} s per run; base {report['base']}, head {report['head']}")
    print(f"failed ops: base {report['failed']['base']}, head {report['failed']['head']}")
    header = ("metric", "base median [q1, q3]", "head median [q1, q3]", "change", "base IQR", "wins", "bound", "verdict")
    rows = [header]
    for name, c in report["metrics"].items():
        b, h = c["base"], c["head"]
        rows.append((name, f"{b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]",
                     f"{h['median']:.4g} [{h['q1']:.4g}, {h['q3']:.4g}]",
                     f"{c['gain']:+.1%}", f"{c['base_iqr_share']:.1%}", f"{c['wins']}/{c['pairs']}",
                     f"{c['bound']:.2f}", c["verdict"]))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    print("change: the head's median against the base's, positive where the head is better")
    return report


def _commands() -> list[tuple[str, list[str]]]:
    """(label, argv after `python`) for every output compared."""
    cli = ["-m", "weakmeter.cli"]
    out = [(f"run {name}", [*cli, "run", name]) for name in ("hardy_nono.json", "anomalous_qubit.json")]
    out += [("hardy-sweep", [*cli, "hardy-sweep"]), ("info-sweep", [*cli, "info-sweep"])]
    wide = ["--g-min", "1e-6", "--g-max", "1e3", "--points", "200"]
    out.append(("hardy-sweep " + " ".join(wide), [*cli, "hardy-sweep", *wide]))
    for dim in (2, 3, 5, 8):
        for g in ("1e-6", "0.02", "1", "1e3"):
            for extra in ([], ["--objective", "min"], ["--observable", "identity"]):
                flags = ["--dim", str(dim), "--g", g, *extra]
                out.append(("bounds-optimize " + " ".join(flags), [*cli, "bounds-optimize", *flags]))
    out.append(("run_suites() margins", ["-c", _MARGINS]))
    out.append(("optimize_pps searches", ["-c", _SEARCHES]))
    return out


def _outputs(tree: Path) -> dict[str, tuple[int, list[str]]]:
    done = {}
    for label, argv in _commands():
        proc = subprocess.run([sys.executable, *argv], cwd=tree, env=_env(tree), capture_output=True, text=True)
        done[label] = (proc.returncode, proc.stdout.splitlines())
    return done


def outputs(base: Path, head: Path) -> int:
    sides = [_outputs(tree) for tree in (base, head)]
    lines = differing = 0
    for label in sides[0]:
        (code_b, out_b), (code_h, out_h) = sides[0][label], sides[1][label]
        lines += max(len(out_b), len(out_h))
        if code_b != code_h:
            differing += 1
            print(f"{label}: exit code {code_b} -> {code_h}")
        for n in range(max(len(out_b), len(out_h))):
            old = out_b[n] if n < len(out_b) else "<none>"
            new = out_h[n] if n < len(out_h) else "<none>"
            if old != new:
                differing += 1
                print(f"{label}: line {n + 1}:\n  base {old}\n  head {new}")
    print(f"{len(sides[0])} commands, {lines} lines of output: "
          + (f"{differing} differ" if differing else "identical"))
    return 1 if differing else 0


def _timed(cmd: list[str]) -> dict:
    """Wall time, exit code and last output line of one command run from the root."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(ROOT), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - start, "exit": proc.returncode,
            "last_line": lines[-1] if lines else proc.stderr.strip()[-200:]}


def _record_workload(workload: str, seconds: int, names: list[str]) -> dict:
    results = [_bench_run(ROOT, workload, seed, seconds) for seed in SEEDS]
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "metrics": {name: dict(unit=results[0]["metrics"][name]["unit"],
                               **_spread([r["metrics"][name]["value"] for r in results]))
                    for name in names},
        "unscaled": {name: _spread([r["details"]["unscaled"][name] for r in results])
                     for name in names if name in results[0]["details"]["unscaled"]},
        "gauge": [{"seed": seed, "readings": r["details"]["gauge_readings"],
                   "median": r["details"]["gauge_median"], "setup": r["details"]["setup_gauge"]}
                  for seed, r in zip(SEEDS, results)],
        "provenance": {key: results[0]["provenance"][key] for key in ("python", "numpy", "source_sha256")},
    }


def record() -> dict:
    """This checkout's benchmark figures, and its Tier-1 and `verify` walls."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    git = [subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True).stdout.strip()
           for cmd in (["rev-parse", "HEAD"], ["status", "--porcelain", "src"])]
    probe = [sys.executable, "-c", "import sys; print(sys.flags.dont_write_bytecode)"]
    flag = subprocess.run(probe, cwd=ROOT, env=_env(ROOT), capture_output=True, text=True, check=True).stdout
    names = [m["name"] for m in spec["end_to_end"]]
    report = {
        "commit": git[0], "src_differs_from_commit": bool(git[1]),
        "seeds": list(SEEDS), "run_seconds": spec["run_seconds"],
        "bytecode": {"dont_write_bytecode": int(flag),
                     "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "workloads": {w["name"]: _record_workload(w["name"], spec["run_seconds"], names)
                      for w in spec["workloads"]},
    }
    walls = {"tier1": [], "verify": []}
    for _ in range(WALL_RUNS):
        walls["tier1"].append(_timed(TIER1))
        walls["verify"].append(_timed(VERIFY))
    for name, runs in walls.items():
        report[name] = {"median_wall_s": statistics.median(r["wall_s"] for r in runs), "runs": runs}
    return report


def _gauge(workload: dict, metric: str) -> float | None:
    """The median gauge reading behind one metric of a recorded workload."""
    if metric not in workload["unscaled"]:
        return None  # peak_rss_mb is not scaled
    if metric == "setup_s":
        return statistics.median(r for run in workload["gauge"] for r in run["setup"])
    return statistics.median(run["median"] for run in workload["gauge"])


def _wall(record: dict, name: str) -> float:
    walls = record[name]
    return walls.get("median_wall_s", walls.get("wall_s"))  # the oldest records hold one run's wall


def diff(a: dict, b: dict, spec: dict) -> dict:
    """Two records side by side: per workload both have, every end-to-end
    metric of `spec` both hold, and the Tier-1 and `verify` walls."""
    workloads = {}
    for name in (w for w in a["workloads"] if w in b["workloads"]):
        wa, wb = a["workloads"][name], b["workloads"][name]
        rows = workloads[name] = {}
        for metric in spec["end_to_end"]:
            m = metric["name"]
            if m not in wa["metrics"] or m not in wb["metrics"]:
                continue
            sign = 1.0 if metric["better"] == "higher" else -1.0
            x, y = wa["metrics"][m]["median"], wb["metrics"][m]["median"]
            rows[m] = {
                "unit": metric["unit"], "a": x, "b": y, "change": sign * (y - x) / abs(x),
                "unscaled": [w["unscaled"][m]["median"] if m in w["unscaled"] else None for w in (wa, wb)],
                "gauge": [_gauge(w, m) for w in (wa, wb)],
            }
    walls = {}
    for name in ("tier1", "verify"):
        x, y = _wall(a, name), _wall(b, name)
        walls[name] = {"a": x, "b": y, "change": (x - y) / x}
    return {"commits": [a["commit"], b["commit"]], "workloads": workloads, "walls": walls}


def _print_diff(report: dict, names: list[str]) -> None:
    def num(x):
        return "-" if x is None else f"{x:.4g}"

    for side, path, commit in zip("ab", names, report["commits"]):
        print(f"{side}: {path} (commit {commit[:12]})")
    header = ("workload", "metric", "a", "b", "change", "a unscaled", "b unscaled", "a gauge", "b gauge")
    rows = [header]
    for workload, metrics in report["workloads"].items():
        for m, r in metrics.items():
            rows.append((workload, f"{m} ({r['unit']})", num(r["a"]), num(r["b"]), f"{r['change']:+.1%}",
                         *map(num, r["unscaled"]), *map(num, r["gauge"])))
    for name, r in report["walls"].items():
        rows.append((name, "median wall (s)", num(r["a"]), num(r["b"]), f"{r['change']:+.1%}", "", "", "", ""))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    print("change: b's median against a's, positive where b is better; a and b are the unscaled "
          "figures scaled to the reference speed by the gauge readings")


def main() -> int:
    parser = argparse.ArgumentParser(description="interleaved benchmark A/B and output diff against a base "
                                                 "commit, a record of this checkout's figures, or a diff of "
                                                 "two records")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--base", help="the base commit, e.g. HEAD~1")
    mode.add_argument("--record", metavar="OUT", help="record this checkout's figures here, e.g. BENCH_<n>.json")
    mode.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two records; runs nothing")
    parser.add_argument("--head", help="a commit to compare instead of this checkout as it stands")
    parser.add_argument("--workload", help="the benchmark workload to run in pairs")
    parser.add_argument("--seeds", type=_seeds, help="one seed per pair, as a-b")
    parser.add_argument("--seconds", type=int, help="seconds per benchmark run (default: BENCHMARK.json's)")
    parser.add_argument("--out", help="write the benchmark report as JSON here")
    parser.add_argument("--outputs", action="store_true", help="byte-diff the fixed output set instead")
    args = parser.parse_args()
    others = args.head or args.workload or args.seeds or args.seconds or args.out or args.outputs
    if args.diff:
        if others:
            parser.error("--diff takes no other option")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        _print_diff(diff(*(json.loads(Path(p).read_text()) for p in args.diff), spec), args.diff)
        return 0
    if args.record:
        if others:
            parser.error("--record takes no other option")
        Path(args.record).write_text(json.dumps(record(), indent=1) + "\n")
        return 0
    if not args.outputs and not (args.workload and args.seeds):
        parser.error("give --workload and --seeds, or --outputs")
    with tempfile.TemporaryDirectory(prefix="weakmeter-ab-") as tmp:
        base = _export(args.base, Path(tmp) / "base")
        head = _export(args.head, Path(tmp) / "head") if args.head else ROOT
        if args.outputs:
            return outputs(base, head)
        report = bench(base, head, args)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
