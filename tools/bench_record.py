"""Record the benchmark's figures for the checked-out commit in one JSON file.

    python3 tools/bench_record.py --out BENCH_<n>.json

Runs the benchmark command of BENCHMARK.json (perfbench/run.py, unchanged)
untraced, for every registered workload at each seed of SEEDS, and reads
each run's result.json.  It then times the Tier-1 test suite and
`weakmeter verify` once each, and writes:

- per workload and end-to-end metric, the median and quartiles over the
  seeds, of the scaled figure and of the unscaled one, with every run's value;
- per run, the speed-gauge readings that scaled it;
- the python and numpy versions and the source digest the runs reported;
- the Tier-1 and `verify` walls, with their exit codes.

Standard library only, so it runs wherever the benchmark does.  It takes
about 20 s per run, some 4 to 5 minutes in all; run nothing else meanwhile.
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
        "workloads": {w["name"]: _record_workload(bench, w["name"]) for w in bench["workloads"]},
        "tier1": _timed(TIER1),
        "verify": _timed(VERIFY),
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
