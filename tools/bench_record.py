"""Record the benchmark's figures for the checked-out commit in one JSON file.

    python3 tools/bench_record.py --out BENCH_<n>.json

Runs the benchmark command of BENCHMARK.json (perfbench/run.py, unchanged)
untraced, for every registered workload at each seed of SEEDS, and reads
each run's result.json.  It then times the Tier-1 test suite and
`weakmeter verify` WALL_RUNS times each, interleaved, so that a slow stretch
of the machine lands on both rather than on one, and writes:

- per workload and end-to-end metric, the median and quartiles over the
  seeds, of the scaled figure and of the unscaled one, with every run's value;
- per run, the speed-gauge readings that scaled it;
- the python and numpy versions and the source digest the runs reported;
- whether the runs' interpreters write bytecode (`sys.flags.dont_write_bytecode`
  of a child started as the runs are, and the `PYTHONDONTWRITEBYTECODE` they
  inherit): without it every fresh interpreter compiles weakmeter from
  source, which `cli` ops and set-up pay, so `cli` walls from machines that
  differ in it do not compare;
- the Tier-1 and `verify` walls of every run, with their exit codes, and
  the median wall of each.

Standard library only, so it runs wherever the benchmark does.  It takes
about 20 s per benchmark run and 3 to 4 minutes for the walls, some 8 to 9
minutes in all; run nothing else meanwhile.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
WALL_RUNS = 3
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
VERIFY = [sys.executable, "-m", "weakmeter.cli", "verify"]


def _env() -> dict:
    path = str(ROOT / "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return dict(os.environ, PYTHONPATH=path)


def _timed(cmd: list[str]) -> dict:
    """Wall time, exit code and last output line of one command run from the root."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - start, "exit": proc.returncode,
            "last_line": lines[-1] if lines else proc.stderr.strip()[-200:]}


def _bytecode() -> dict:
    """Whether an interpreter started as the runs are writes bytecode."""
    probe = [sys.executable, "-c", "import sys; print(sys.flags.dont_write_bytecode)"]
    flag = subprocess.run(probe, cwd=ROOT, env=_env(), capture_output=True, text=True, check=True).stdout
    return {"dont_write_bytecode": int(flag), "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def _walls(commands: dict[str, list[str]]) -> dict:
    """Every command WALL_RUNS times, interleaved: each run and the median wall."""
    runs = {name: [] for name in commands}
    for _ in range(WALL_RUNS):
        for name, cmd in commands.items():
            runs[name].append(_timed(cmd))
    return {name: {"median_wall_s": statistics.median(r["wall_s"] for r in done), "runs": done}
            for name, done in runs.items()}


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def _record_workload(bench: dict, workload: str) -> dict:
    results = []
    for seed in SEEDS:
        cmd = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
        path = ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace0" / "result.json"
        results.append(json.loads(path.read_text()))
    names = [metric["name"] for metric in bench["end_to_end"]]
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "metrics": {
            name: dict(unit=results[0]["metrics"][name]["unit"],
                       **_spread([r["metrics"][name]["value"] for r in results]))
            for name in names
        },
        "unscaled": {
            name: _spread([r["details"]["unscaled"][name] for r in results])
            for name in names if name in results[0]["details"]["unscaled"]
        },
        "gauge": [
            {"seed": seed, "readings": r["details"]["gauge_readings"],
             "median": r["details"]["gauge_median"], "setup": r["details"]["setup_gauge"]}
            for seed, r in zip(SEEDS, results)
        ],
        "provenance": {key: results[0]["provenance"][key] for key in ("python", "numpy", "source_sha256")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="record the benchmark's figures for this commit")
    parser.add_argument("--out", required=True, help="the JSON file to write, e.g. BENCH_<n>.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    git = [subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True).stdout.strip()
           for cmd in (["rev-parse", "HEAD"], ["status", "--porcelain", "src"])]
    record = {
        "commit": git[0],
        "src_differs_from_commit": bool(git[1]),
        "seeds": list(SEEDS),
        "run_seconds": bench["run_seconds"],
        "bytecode": _bytecode(),
        "workloads": {w["name"]: _record_workload(bench, w["name"]) for w in bench["workloads"]},
        **_walls({"tier1": TIER1, "verify": VERIFY}),
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
