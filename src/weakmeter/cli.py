"""Command-line interface.

Subcommands
-----------
run             evaluate one scenario file (exact, first- and second-order)
hardy-sweep     CSV of the four inferred which-path probabilities vs g
info-sweep      CSV of device information gain and extreme shift vs g
bounds-optimize extremal-selection search report for a canonical observable
verify          randomized invariant suites

Exit codes: 0 success; 1 an internal invariant failed; 2 invalid input
(bad flags, malformed scenario, out-of-contract parameters); 3 orthogonal
pre/postselection.  Numbers are printed with 17 significant digits so CSV
output round-trips to the exact double.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import SUITE_NAMES
from .errors import (
    ContractError,
    DegenerateDenominatorError,
    InternalConsistencyError,
    OrthogonalSelectionError,
    RegimeError,
    UndefinedExtremeError,
    ValidationError,
)
from .exactengine import MAX_SWEEP_POINTS, GaussianPointer, exact_shifts, grid_shifts
from .qcore import HermitianObservable, ProjectionOperator

# Every subcommand calls the engine above.  Each handler imports the rest of
# what it calls, so that a subcommand loads only the modules it uses.

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INPUT = 2
EXIT_ORTHOGONAL = 3


def _fmt(x: float) -> str:
    return format(float(x) + 0.0, ".17g")  # + 0.0 turns -0.0 into 0.0


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:  # a path that cannot be written is bad input, not a fault
        raise ValidationError(f"cannot write {out!r}: {exc.strerror or exc}") from exc


def _resolve_scenario(name: str):
    from importlib import resources

    from .scenario import load_scenario, parse_scenario

    bundled = resources.files("weakmeter").joinpath("scenarios")
    try:
        on_disk = Path(name).is_file()
        in_bundle = not on_disk and bundled.joinpath(name).is_file()
    except OSError as exc:  # e.g. a name longer than the file system allows
        raise ValidationError(f"scenario: cannot look up {name!r}: {exc.strerror or exc}") from None
    if on_disk:
        return load_scenario(name)
    if in_bundle:
        return parse_scenario(json.loads(bundled.joinpath(name).read_text(encoding="utf-8")))
    raise ValidationError(
        f"scenario: {name!r} is neither a file nor a bundled scenario "
        "(bundled: " + ", ".join(sorted(e.name for e in bundled.iterdir())) + ")"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    from .weakvalue import jozsa_shifts, second_order_shifts, weak_moments

    setup, grid = _resolve_scenario(args.scenario)
    moments = weak_moments(setup.preselection, setup.postselection, setup.observable)
    outcome = exact_shifts(setup)
    dq1, dp1 = jozsa_shifts(moments.weak_value, setup.g, setup.pointer)
    dq2, dp2 = second_order_shifts(moments, setup.g, setup.pointer)
    lines = [
        ("scenario", args.scenario),
        ("dimension", str(setup.observable.dimension)),
        ("g", _fmt(setup.g)),
        ("delta", _fmt(setup.pointer.delta)),
        ("selection_prob", _fmt(moments.postselect_prob)),
        ("postselect_prob", _fmt(outcome.postselect_prob)),
        ("weak_value_re", _fmt(moments.weak_value.real_part)),
        ("weak_value_im", _fmt(moments.weak_value.imag_part)),
        ("delta_q_exact", _fmt(outcome.delta_q)),
        ("delta_p_exact", _fmt(outcome.delta_p)),
        ("delta_q_first_order", _fmt(dq1)),
        ("delta_p_first_order", _fmt(dp1)),
        ("delta_q_second_order", _fmt(dq2)),
        ("delta_p_second_order", _fmt(dp2)),
    ]
    if grid is not None:
        oracle = grid_shifts(setup, grid)
        lines += [
            ("delta_q_grid", _fmt(oracle.delta_q)),
            ("delta_p_grid", _fmt(oracle.delta_p)),
            ("postselect_prob_grid", _fmt(oracle.postselect_prob)),
        ]
    width = max(len(k) for k, _ in lines)
    sys.stdout.write("".join(f"{k:<{width}} = {v}\n" for k, v in lines))
    return EXIT_OK


def _write_sweep_csv(out: str, units: str, header: list[str], rows: list[list[float]]) -> None:
    lines = [f"# units: {units}", ",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    _emit("\n".join(lines) + "\n", out)


def _cmd_hardy_sweep(args: argparse.Namespace) -> int:
    from .hardy import probability_curve

    curve = probability_curve(args.g_min, args.g_max, args.points, args.delta, args.spacing)
    _write_sweep_csv(
        args.out,
        "g=length, prob_*=dimensionless",
        ["g", "prob_oo", "prob_ono", "prob_noo", "prob_nono"],
        [[pt.g, pt.prob_oo, pt.prob_ono, pt.prob_noo, pt.prob_nono] for pt in curve],
    )
    return EXIT_OK


def _cmd_info_sweep(args: argparse.Namespace) -> int:
    from .infogain import info_curve

    if args.g_min <= 0.0:
        raise ValidationError("--g-min must be > 0 (the extreme q_min is undefined at g = 0)")
    curve = info_curve(args.g_min, args.g_max, args.points, args.delta)
    _write_sweep_csv(
        args.out,
        "g=length, lambda=dimensionless, i_a_bits=bits, q_min=length",
        ["g", "lambda", "i_a_bits", "q_min"],
        [[pt.g, pt.lam, pt.i_a, pt.q_min] for pt in curve],
    )
    return EXIT_OK


def _canonical_observable(kind: str, dim: int) -> tuple[HermitianObservable, str]:
    if not 2 <= dim <= 8:
        raise ValidationError(f"--dim must be in 2..8, got {dim}")
    if kind == "identity":
        return (
            HermitianObservable.from_projector(ProjectionOperator.identity(dim)),
            f"identity (d = {dim})",
        )
    path = np.zeros((dim, dim), dtype=complex)
    path[0, 0] = 1.0
    return (
        HermitianObservable.from_projector(ProjectionOperator(path)),
        f"which-path projector (d = {dim})",
    )


def _cmd_bounds_optimize(args: argparse.Namespace) -> int:
    from .bounds import optimize_pps

    observable, label = _canonical_observable(args.observable, args.dim)
    pointer = GaussianPointer(args.delta)
    result = optimize_pps(observable, args.g, pointer, objective=args.objective)
    best = result.optimizer_best_max if args.objective == "max" else result.optimizer_best_min
    target = result.q_max if args.objective == "max" else result.q_min
    gap = abs(best - target)
    rel = gap / max(abs(target), 1e-300)
    pre, post = result.argmax_states
    lines = [
        ("observable", label),
        ("g", _fmt(args.g)),
        ("delta", _fmt(args.delta)),
        ("objective", args.objective),
        ("best_delta_q_max", _fmt(result.optimizer_best_max)),
        ("best_delta_q_min", _fmt(result.optimizer_best_min)),
        ("envelope_q_max", _fmt(result.q_max)),
        ("envelope_q_min", _fmt(result.q_min)),
        ("gap_to_envelope", _fmt(gap)),
        ("gap_relative", _fmt(rel)),
        ("preselect_re", " ".join(_fmt(z.real) for z in pre.amplitudes)),
        ("preselect_im", " ".join(_fmt(z.imag) for z in pre.amplitudes)),
        ("postselect_re", " ".join(_fmt(z.real) for z in post.amplitudes)),
        ("postselect_im", " ".join(_fmt(z.imag) for z in post.amplitudes)),
    ]
    width = max(len(k) for k, _ in lines)
    _emit("".join(f"{k:<{width}} = {v}\n" for k, v in lines), args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suites

    results = run_suites(args.suite)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(
            f"{r.name:<8} {status}  instances={r.instances}  "
            f"worst_margin={r.worst_margin:.3g}  ({r.detail})\n"
        )
    if failed:
        for r in failed:
            if r.violating_instance is not None:
                sys.stdout.write(f"violating instance for suite {r.name!r}:\n")
                sys.stdout.write(json.dumps(r.violating_instance, indent=2) + "\n")
        return EXIT_INVARIANT
    sys.stdout.write("all checks passed\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakmeter",
        description="Pointer statistics for postselected weak measurements.",
        epilog="exit codes: 0 ok, 1 invariant failure, 2 invalid input, 3 orthogonal selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    points_help = f"number of couplings, 2..{MAX_SWEEP_POINTS} (default 200)"

    p = sub.add_parser("run", help="evaluate one scenario file")
    p.add_argument("scenario", help="path to a scenario JSON, or the name of a bundled one")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("hardy-sweep", help="sweep the four inferred which-path probabilities")
    p.add_argument("--g-min", type=float, default=1e-3)
    p.add_argument("--g-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=200, help=points_help)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--spacing", choices=("lin", "log"), default="log")
    p.add_argument("--out", default="-", help="output CSV path, or - for stdout")
    p.set_defaults(func=_cmd_hardy_sweep)

    p = sub.add_parser("info-sweep", help="sweep device information gain and extreme shift")
    p.add_argument("--g-min", type=float, default=0.01)
    p.add_argument("--g-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=200, help=points_help)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--out", default="-", help="output CSV path, or - for stdout")
    p.set_defaults(func=_cmd_info_sweep)

    p = sub.add_parser("bounds-optimize", help="search selections for extremal position shifts")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--objective", choices=("max", "min"), default="max")
    p.add_argument("--observable", choices=("which-path", "identity"), default="which-path")
    p.add_argument("--out", default="-", help="output report path, or - for stdout")
    p.set_defaults(func=_cmd_bounds_optimize)

    p = sub.add_parser("verify", help="run randomized invariant suites")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports bad flags itself, code 2
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except OrthogonalSelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORTHOGONAL
    except (
        ValidationError,
        ContractError,
        RegimeError,
        DegenerateDenominatorError,
        UndefinedExtremeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
