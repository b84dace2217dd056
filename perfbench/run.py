"""The weakmeter benchmark.

    python3 perfbench/run.py --workload {cli,stream,sweep,extremal} --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout of the repository; it imports the
package from the checkout's src/ and needs nothing installed beyond numpy
and scipy.  Each run sets the workload up SETUP_RUNS times in fresh
interpreters (the last of them then measures), checks every op's output,
writes perfbench/out/<workload>-seed<N>-trace<T>/result.json with the
provenance, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

With --trace 0 the metrics are the end-to-end ones, their times scaled to a
reference machine speed by the gauges in gauge.py; with --trace 1 they are
the per-layer ones from a traced run (see README.md for both lists).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli", "stream", "sweep", "extremal")

# BLAS is pinned to one thread in the benchmark and every process it starts.
BLAS_ENV = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
SETUP_RUNS = 5
TAIL_BEYOND = 10
# A run ends within this many seconds of its start, or fails.
DEADLINE_S = 170


class BenchError(Exception):
    pass


def _environment() -> dict:
    path = str(ROOT / "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return dict(os.environ, PYTHONPATH=path)


def _worker(args, env: dict, out: Path, deadline: float, setup_only: bool) -> dict:
    """Run worker.py; its report gains setup_s, spawn to ready for the first op.

    The worker is killed, and the run fails, if it is still going at
    `deadline` (a time.monotonic() value).
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    timeout = max(deadline - spawned, 0.0)
    # A session of its own, so a timeout also ends the worker's children.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker still running after {timeout:.0f} s, at the run's deadline") from None
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    report = json.loads(stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def _python_start_s(env: dict) -> float:
    """Median wall time of a bare `python -c pass`: a machine-noise reference."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def latency_stats(samples: list[float]) -> dict:
    """Median, and the highest percentile with TAIL_BEYOND samples above it.

    With fewer than TAIL_BEYOND + 1 samples no such percentile exists; the
    tail is then the maximum and `tail_beyond` says how many lie above it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {
        "samples": n,
        "p50_s": statistics.median(ordered),
        "tail_s": ordered[index],
        "tail_percentile": 100.0 * (index + 1) / n,
        "tail_beyond": n - 1 - index,
    }


def _scales(run: dict) -> list[float]:
    """Per op of a measured run, the factor that scales it to the reference speed."""
    return gauge.scales(run["mids"], run["gauge"])


def end_to_end(run: dict, setups: list[float], setup_readings: list[float],
               peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, every time scaled to the reference speed.

    An op's wall and CPU time are scaled by the readings of the workload's
    gauge nearest to it, a set-up by the mean of the MIXED gauge readings
    taken just before and just after it (gauge.py).  The unscaled figures go
    into the details.
    """
    samples = run["samples"]
    scale = _scales(run)
    wall = [t * f for t, f in zip(samples, scale)]
    cpu = [c * f for c, f in zip(run["cpu"], scale)]
    lat = latency_stats(wall)
    setup = [t / (0.5 * (before + after))
             for t, before, after in zip(setups, setup_readings, setup_readings[1:])]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_s": (len(wall) / sum(wall), "ops/s"),
        "latency_p50_s": (lat["p50_s"], "s"),
        "latency_tail_s": (lat["tail_s"], "s"),
        "cpu_per_op_s": (sum(cpu) / len(cpu), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = latency_stats(samples)
    details = dict(
        lat, ops=len(samples), op_time_s=sum(samples), window_s=run["window_s"],
        failed_frac=len(run["failures"]) / len(samples),
        gauge_readings=len(run["gauge"]), gauge_median=statistics.median(r for _, r in run["gauge"]),
        setup_gauge=setup_readings,
        unscaled={"setup_s": statistics.median(setups), "setup_runs_s": setups,
                  "throughput_ops_s": len(samples) / sum(samples),
                  "latency_p50_s": raw["p50_s"], "latency_tail_s": raw["tail_s"],
                  "cpu_per_op_s": sum(run["cpu"]) / len(samples)},
    )
    return metrics, details


def per_layer(report: dict, imports: list[float]) -> tuple[dict, dict]:
    traced, untraced = report["traced"]["samples"], report["untraced"]["samples"]
    ops = len(traced)
    metrics = {}
    for label in tracer.LABELS:
        t = report["layers"][label]
        metrics[f"{label}.calls"] = (t["calls"] / ops, "calls/op")
        metrics[f"{label}.busy_s"] = (t["busy"] / ops, "s/op")
        if label in tracer.WITH_CHILDREN:
            metrics[f"{label}.self_s"] = (t["self"] / ops, "s/op")
    exact = report["layers"]["exactengine.exact_shifts"]
    metrics["exactengine.exact_shifts.useful_frac"] = (
        exact["returned"] / exact["calls"] if exact["calls"] else 0.0, "ratio")
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    main_busy = report["cli_main_busy"]
    process = sum(wall - main_busy[str(k)] for k, wall in enumerate(traced) if str(k) in main_busy)
    metrics["cli.process_s"] = (process / ops, "s/op")
    # The two halves run at different times, so they are compared at the
    # gauge's reference speed, as the end-to-end times are.
    untraced_rate, traced_rate = (
        len(half["samples"]) / sum(t * f for t, f in zip(half["samples"], _scales(half)))
        for half in (report["untraced"], report["traced"]))
    metrics["trace.untraced_ops_s"] = (untraced_rate, "ops/s")
    metrics["trace.traced_ops_s"] = (traced_rate, "ops/s")
    metrics["trace.overhead_frac"] = (1.0 - traced_rate / untraced_rate, "ratio")
    details = {"traced_ops": ops, "untraced_ops": len(untraced)}
    return metrics, details


def main() -> int:
    parser = argparse.ArgumentParser(description="weakmeter benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "weakmeter" / "__init__.py").is_file():
        print(f"error: no weakmeter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # One CPU for the benchmark and every process it starts, so that the
    # speed gauges read the core the ops run on (gauge.py).  Every process
    # started from here inherits os.environ: one BLAS thread, and one string
    # hash order, so that runs differ by the seed only.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    os.environ.update(BLAS_ENV, PYTHONHASHSEED="0")
    env = _environment()
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        python_start_s = _python_start_s(env)
        # The MIXED gauge is read before every worker start and after the last.
        setup_readings, probes = [], []
        for _ in range(SETUP_RUNS - 1):
            setup_readings.append(gauge.mixed())
            probes.append(_worker(args, env, out, deadline, setup_only=True))
        setup_readings.append(gauge.mixed())
        report = _worker(args, env, out, deadline, setup_only=False)
        setup_readings.append(gauge.mixed())
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, details = per_layer(report, [r["import_s"] for r in probes + [report]])
        runs = [report["untraced"], report["traced"]]
    else:
        metrics, details = end_to_end(report["run"], [r["setup_s"] for r in probes + [report]],
                                      setup_readings, report["peak_rss_mb"])
        runs = [report["run"]]
    attempted = sum(len(r["samples"]) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **report["versions"], "blas": report["blas"], "blas_env": BLAS_ENV,
        "nproc": os.cpu_count(), "pinned_cpu": cpu,
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
        "python_start_s": python_start_s,
    }
    result = {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (out / "result.json").write_text(json.dumps(
        dict(result, details=details, provenance=provenance, failures=failures[:20]), indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, value in details.items():
        print(f"# {name} = {value}")
    print(f"# provenance = {json.dumps(provenance)}")
    for k, message in failures[:5]:
        print(f"# FAILED op {k}: {message}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
