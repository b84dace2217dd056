"""One benchmark process: set up a workload, then run its ops in a closed loop.

Started by run.py in a fresh interpreter, so its set-up covers interpreter
start, `import weakmeter`, input generation and, for stream, warm-up.
Prints one JSON object as its last line of output.

    python perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --out DIR [--setup-only]
"""

import time

_t_import = time.perf_counter()
import weakmeter  # noqa: E402  (timed: this is the import a user pays for)

IMPORT_S = time.perf_counter() - _t_import

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import gauge  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Inputs run once before timing starts, to let lazy set-up and caches fill.
# Only stream needs it: a probe found the first optimize_pps search, sweep or
# cli op of a process no slower than the next ones.
WARM_UP = {"stream": range(32)}
# An untraced run goes on past --seconds until it has this many ops, so that
# its tail (TAIL_BEYOND = 10 samples above it in run.py) is at p72 or higher.
MIN_OPS = 36


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def measure(work, seconds: float, gauge_read, trace: tracer.Tracer | None = None, min_ops: int = 1) -> dict:
    """Closed loop, one client: ops back to back until `seconds` have passed
    and at least `min_ops` ops have run.

    Only run() is timed, in wall and CPU time per op; input generation, the
    output check and the speed gauge `gauge_read`, read at least
    gauge.EVERY_S apart between ops and once at the end, are not.  `mids`
    holds each op's midpoint and `gauge` the readings as (time, reading)
    pairs, on the same perf_counter clock.
    """
    samples, cpu, mids, readings, failures = [], [], [], [], []
    start = time.perf_counter()
    next_reading = start
    k = 0
    while k < min_ops or time.perf_counter() - start < seconds:
        if time.perf_counter() >= next_reading:
            readings.append((time.perf_counter(), gauge_read()))
            next_reading = time.perf_counter() + gauge.EVERY_S
        x = work.make_input(k)
        if trace is not None:
            trace.op = k
        c0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            out, error = work.run(x), None
        except Exception as exc:  # an op that raises counts as failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        cpu.append(_cpu_seconds() - c0)
        if error is None:
            try:
                error = work.check(x, out)
            except Exception as exc:  # a check that cannot read the output fails the op
                error = f"check raised {type(exc).__name__}: {exc}"
        samples.append(t1 - t0)
        mids.append(0.5 * (t0 + t1))
        if error is not None:
            failures.append([k, error])
        k += 1
    window_s = time.perf_counter() - start
    readings.append((time.perf_counter(), gauge_read()))
    return {"samples": samples, "cpu": cpu, "mids": mids, "gauge": readings,
            "failures": failures, "window_s": window_s}


def _blas() -> dict:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        return {key: deps[key].get("name") for key in ("blas", "lapack") if key in deps}
    except Exception:  # the config layout differs across numpy versions
        return {}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    kind = workloads.WORKLOADS[args.workload]
    if kind is workloads.Cli:
        work = kind(args.seed, args.out / "scenarios")
        gauge_read = gauge.mixed  # an op is a whole interpreter (gauge.py)
    else:
        work = kind(args.seed)
        gauge_read = gauge.compute
    for k in WARM_UP.get(args.workload, ()):
        work.run(work.make_input(k))
    report = {
        "ready": time.monotonic(),
        "import_s": IMPORT_S,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "weakmeter": weakmeter.__version__},
        "blas": _blas(),
    }
    if args.setup_only:
        print(json.dumps(report))
        return 0

    if args.trace:
        # Same seed, same inputs: half the time untraced, half traced.
        half = args.seconds / 2.0
        report["untraced"] = measure(work, half, gauge_read)
        spans = tracer.Tracer()
        if kind is workloads.Cli:
            work.span_dir = args.out / "spans"
            work.span_dir.mkdir(parents=True, exist_ok=True)
        spans.install()
        try:
            report["traced"] = measure(work, half, gauge_read, spans)
        finally:
            spans.uninstall()
        if kind is workloads.Cli:
            for path in sorted(work.span_dir.glob("op_*.json")):
                tracer.merge(spans.spans, json.loads(path.read_text()))
        spans.dump(args.out / "spans.json")
        report["layers"] = tracer.layer_totals(spans.spans)
        report["cli_main_busy"] = tracer.op_busy(spans.spans, "cli.main")
    else:
        report["run"] = measure(work, args.seconds, gauge_read, min_ops=MIN_OPS)

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if kind is workloads.Cli else resource.RUSAGE_SELF)
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
