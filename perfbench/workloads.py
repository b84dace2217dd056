"""The four workloads: seeded inputs, one op each, and the check of its output.

Every workload has the same shape:

    make_input(k)  the k-th input, a pure function of (seed, k); untimed
    run(x)         the op itself; the only timed code
    check(x, out)  None when the output is right, else a message; untimed

Inputs are drawn from their own generator per op, so one seed always gives
the same input sequence however many ops a run completes.  Checks compare
against reference.py, never against the routine being timed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import weakmeter as wm
import reference as ref
from weakmeter.errors import OrthogonalSelectionError

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE.parent / "src" / "weakmeter" / "scenarios"
DELTAS = (0.5, 1.0, 2.0)


def _rng(seed: int, tag: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, *more])


def _unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _haar(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitize(m):
    return (m + m.conj().T) / 2.0


def _projector(cols):
    return _hermitize(cols @ cols.conj().T)


def _density(rng, d, rank):
    m = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = m @ m.conj().T
    return _hermitize(rho / rho.trace().real)


def _hermitian(rng, d):
    """Random Hermitian matrix with spectrum spanning exactly [-1, 1]."""
    h = _hermitize(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    vals = np.linalg.eigvalsh(h)
    h = (h - 0.5 * (vals[-1] + vals[0]) * np.eye(d)) / (0.5 * (vals[-1] - vals[0]))
    return _hermitize(h)


def _observable(rng, d):
    """A Hermitian observable or a projector of rank 1..d-1, 50/50."""
    if rng.random() < 0.5:
        return _hermitian(rng, d)
    return _projector(_haar(rng, d)[:, : int(rng.integers(1, d))])


def _orthogonal_selection(rng, d):
    """(rho, Pi, A) with a postselection probability of 0 at every coupling.

    psi lies in the span of m eigenvectors of A and the rank-1 Pi in the span
    of the others, so the coupling never carries psi into Pi: tr(Pi rho) and
    N(g) are rounding noise, far below the 1e-14 floor.  Pi has rank 1 because
    at higher rank exact_shifts raises InternalConsistencyError on such a
    selection instead of OrthogonalSelectionError (README.md, known defects).
    """
    basis = _haar(rng, d)
    m = int(rng.integers(1, d))
    if rng.random() < 0.5:
        levels = rng.uniform(-1.0, 1.0, d)
    else:  # a projector of rank 1..d-1
        levels = rng.permutation(np.arange(d) < rng.integers(1, d)).astype(float)
    a_mat = _hermitize((basis * levels) @ basis.conj().T)
    psi = basis[:, :m] @ _unit(rng, m)
    post = basis[:, m:] @ _unit(rng, d - m)
    return _hermitize(np.outer(psi, psi.conj())), _projector(post[:, None]), a_mat


def _unless_orthogonal(fn, *args):
    """fn(*args), or None when it rejects the selection as orthogonal."""
    try:
        return fn(*args)
    except OrthogonalSelectionError:
        return None


def _shift_tolerances(sel, n, mass, g, delta):
    """Tolerances on (delta_q, delta_p, N) for the plain reference sum.

    The plain sum loses about mass/N of relative precision near orthogonal
    selections; the tolerances scale with that amplification.
    """
    amp = max(1.0, mass / n)
    scale_q = max(delta, g * sel.norm_a)
    scale_p = max(0.5 / delta, g * sel.norm_a / (2.0 * delta**2))
    return 1e-9 * scale_q * amp, 1e-9 * scale_p * amp, 1e-12 * mass


def _second_order_tolerance(sel, g, delta, denom):
    """Tolerance on the second-order shifts, scaled by 1/p and 1/|D| amplification."""
    lever = g**2 / (4.0 * delta**2) * sel.norm_a**2 / sel.prob / abs(denom)
    return 1e-9 * g * sel.norm_a / sel.prob / abs(denom) * (1.0 + lever)


def _first_failure(*messages):
    return next((m for m in messages if m is not None), None)


class Stream:
    """One op = one distinct random selection, validated and evaluated once."""

    TAG = 1
    GRID_EVERY = 64
    SHAPE_PERIOD = 5 * GRID_EVERY  # five grid ops, one of each d

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def make_input(self, k: int) -> dict:
        # The shape of the k-th input (d, which kind of selection, the ranks,
        # the kind of observable) does not depend on the seed and repeats
        # every SHAPE_PERIOD ops, so that every run, whatever its length and
        # seed, has the same mix of op costs, the grid ops included; the seed
        # draws the matrices, the vectors, g and Delta.  d cycles through 2..6.
        shape = _rng(0, self.TAG, k % self.SHAPE_PERIOD)
        d = 2 + k % 5
        orthogonal = shape.random() < 1.0 / 32.0
        pure = shape.random() < 0.5
        rho_rank = int(shape.integers(2, d + 1))
        pi_rank = int(shape.integers(1, d))
        hermitian = shape.random() < 0.5
        a_rank = int(shape.integers(1, d))
        rng = _rng(self.seed, self.TAG, k)
        while True:  # redraws are rare; see _usable
            if orthogonal:
                rho, pi, a_mat = _orthogonal_selection(rng, d)
            else:
                if pure:
                    psi = _unit(rng, d)
                    rho = _hermitize(np.outer(psi, psi.conj()))
                else:
                    rho = _density(rng, d, rho_rank)
                pi = _projector(_haar(rng, d)[:, :pi_rank])
                a_mat = _hermitian(rng, d) if hermitian else _projector(_haar(rng, d)[:, :a_rank])
            delta = float(rng.choice(DELTAS))
            g = delta * 10.0 ** rng.uniform(-3.0, 1.0)
            x = {"rho": rho, "pi": pi, "a": a_mat, "g": g, "delta": delta,
                 "orthogonal": orthogonal, "grid": k % self.GRID_EVERY == self.GRID_EVERY - 1,
                 "weak": g / (2.0 * delta) <= 0.01}
            if self._usable(x):
                return x

    @staticmethod
    def _usable(x: dict) -> bool:
        """Fill in the references; False for the rare ambiguous draw.

        A draw is redrawn when its selection probability is below 1e-4, or
        when the second-order denominator or the finite-coupling probability
        is within 1e-6 of zero: there the expected outcome would hinge on
        rounding.  Orthogonal draws are orthogonal by construction.
        """
        sel = ref.selection(x["rho"], x["pi"], x["a"])
        x["sel"] = sel
        if x["orthogonal"]:
            return True
        q, p, n, mass = ref.exact_shifts(sel, x["g"], x["delta"])
        x["shifts"] = (float(q[0]), float(p[0]), float(n[0]), mass)
        x["second"] = ref.second_order(sel, x["g"], x["delta"])
        return sel.prob >= 1e-4 and n[0] >= 1e-6 and abs(x["second"][2]) >= 1e-6

    def run(self, x: dict):
        """(moments, gap, shifts, second, report, grid); an orthogonal
        selection stops after the two calls that reject it, the rest None."""
        obs = wm.HermitianObservable(x["a"])
        rho = wm.DensityOperator(x["rho"])
        pi = wm.ProjectionOperator(x["pi"])
        pointer = wm.GaussianPointer(x["delta"])
        setup = wm.MeasurementSetup(obs, rho, pi, x["g"], pointer)
        shifts = _unless_orthogonal(wm.exact_shifts, setup)
        moments = _unless_orthogonal(wm.weak_moments, rho, pi, obs)
        if shifts is None or moments is None:
            return moments, None, shifts, None, None, None
        gap = wm.schwarz_gap(rho, pi, obs)
        second = wm.second_order_shifts(moments, x["g"], pointer)
        report = wm.check_weak_bounds(setup) if x["weak"] else None
        grid = wm.grid_shifts(setup, wm.GridSpec.for_setup(setup)) if x["grid"] else None
        return moments, gap, shifts, second, report, grid

    def check(self, x: dict, out) -> str | None:
        moments, gap, shifts, second, report, grid = out
        if x["orthogonal"]:
            return _first_failure(
                None if moments is None else "weak_moments accepted an orthogonal selection",
                None if shifts is None else "exact_shifts accepted a selection orthogonal at every coupling",
            )
        if moments is None or shifts is None:
            return "OrthogonalSelectionError on a selection with probability >= 1e-4"
        sel, g, delta = x["sel"], x["g"], x["delta"]
        p, na = sel.prob, sel.norm_a
        dq, dp, n, mass = x["shifts"]
        tol_q, tol_p, tol_n = _shift_tolerances(sel, n, mass, g, delta)
        aw = moments.weak_value
        dq2, dp2, denom = x["second"]
        tol_2 = _second_order_tolerance(sel, g, delta, denom)
        messages = [
            ref.within("postselect_prob", moments.postselect_prob, min(p, 1.0), 1e-12),
            ref.within("weak value re", aw.real_part, sel.weak_value.real, 1e-10 * na / p),
            ref.within("weak value im", aw.imag_part, sel.weak_value.imag, 1e-10 * na / p),
            ref.within("two_sided", moments.two_sided, sel.two_sided, 1e-10 * na**2 / p),
            ref.within("square_real", moments.square_real, sel.square_real, 1e-10 * na**2 / p),
            None if gap >= 0.0 else f"schwarz_gap {gap!r} is negative",
            ref.within("schwarz_gap", gap, sel.two_sided - abs(sel.weak_value) ** 2, 1e-10 * na**2 / p**2),
            ref.within("exact delta_q", shifts.delta_q, dq, tol_q),
            ref.within("exact delta_p", shifts.delta_p, dp, tol_p),
            ref.within("exact postselect_prob", shifts.postselect_prob, min(n, 1.0), tol_n),
            ref.within("second-order delta_q", second[0], dq2, tol_2),
            ref.within("second-order delta_p", second[1], dp2, tol_2 / delta),
        ]
        if report is not None:
            messages += self._check_report(report, x, dq, dp, tol_q, tol_p)
        if grid is not None:
            messages += [
                ref.within("grid delta_q", grid.delta_q, dq, 1e-8 * delta + tol_q),
                ref.within("grid delta_p", grid.delta_p, dp, 1e-8 / (2.0 * delta) + tol_p),
            ]
        return _first_failure(*messages)

    @staticmethod
    def _check_report(report, x, dq, dp, tol_q, tol_p) -> list:
        sel, g, delta = x["sel"], x["g"], x["delta"]
        bound_q, bound_p = delta, 1.0 / (2.0 * delta)
        messages = [
            ref.within("bound_q", report.bound_q, bound_q, 0.0),
            ref.within("bound_p", report.bound_p, bound_p, 1e-15 * bound_p),
            ref.within("observed_q", report.observed_q, dq, tol_q),
            ref.within("observed_p", report.observed_p, dp, tol_p),
        ]
        margin_q = bound_q * (1.0 + 1e-6) - abs(dq)
        margin_p = bound_p * (1.0 + 1e-6) - abs(dp)
        if abs(margin_q) > tol_q and abs(margin_p) > tol_p:
            want = margin_q > 0.0 and margin_p > 0.0
            if report.satisfied != want:
                messages.append(f"bounds satisfied = {report.satisfied}, expected {want}")
        is_projector = float(np.max(np.abs(x["a"] @ x["a"] - x["a"]))) <= 1e-10
        if is_projector:
            u2 = (g / (2.0 * delta)) ** 2
            k_ref = 1.0 + u2 * (sel.two_sided - sel.weak_value.real)
            messages.append(ref.within("k_value", report.k_value, k_ref, 1e-9 * (1.0 + u2 * sel.norm_a**2 / sel.prob)))
        elif not math.isnan(report.k_value):
            messages.append(f"k_value {report.k_value!r} for a non-projector observable")
        return messages


class Sweep:
    """One op = one coupling sweep; many couplings share one selection.

    Ops rotate through probability_curve (log spacing), info_curve (linear
    spacing) and an exact_shifts sweep of one fixed mixed d = 4 setup with a
    rank-2 preselection and a rank-2 postselection.  Each kind has its own
    fixed point count, chosen so that the three cost about the same: then the
    median and the tail fall inside one cluster of op times instead of in a
    gap between two, and only the ranges and Delta are seeded.
    """

    TAG = 2
    POINTS = {"hardy": 400, "info": 1200, "exact": 2000}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = _rng(seed, self.TAG)
        rho = _density(rng, 4, 2)
        pi = _projector(_haar(rng, 4)[:, :2])
        a_mat = _hermitian(rng, 4)
        self.delta = float(rng.choice(DELTAS))
        self.sel = ref.selection(rho, pi, a_mat)
        self.fixed = (
            wm.HermitianObservable(a_mat), wm.DensityOperator(rho),
            wm.ProjectionOperator(pi), wm.GaussianPointer(self.delta),
        )

    def make_input(self, k: int) -> dict:
        rng = _rng(self.seed, self.TAG, k)
        kind = ("hardy", "info", "exact")[k % 3]
        points = self.POINTS[kind]
        if kind == "exact":
            delta = self.delta
            gs = np.geomspace(delta * 10.0 ** rng.uniform(-3.0, -2.0), delta * 10.0 ** rng.uniform(0.5, 1.0), points)
            return {"kind": kind, "gs": gs, "delta": delta}
        delta = float(rng.choice(DELTAS))
        if kind == "hardy":
            g_min, g_max = delta * 10.0 ** rng.uniform(-3.3, -2.7), delta * 10.0 ** rng.uniform(0.6, 1.0)
        else:
            g_min, g_max = delta * rng.uniform(0.0, 0.05), delta * rng.uniform(5.0, 10.0)
        return {"kind": kind, "g_min": g_min, "g_max": g_max, "points": points, "delta": delta}

    def run(self, x: dict):
        if x["kind"] == "hardy":
            return wm.probability_curve(x["g_min"], x["g_max"], x["points"], x["delta"], "log")
        if x["kind"] == "info":
            return wm.info_curve(x["g_min"], x["g_max"], x["points"], x["delta"])
        obs, rho, pi, pointer = self.fixed
        return [wm.exact_shifts(wm.MeasurementSetup(obs, rho, pi, float(g), pointer)) for g in x["gs"]]

    def check(self, x: dict, out) -> str | None:
        if x["kind"] == "hardy":
            return check_hardy_curve(
                [(pt.g, pt.prob_oo, pt.prob_ono, pt.prob_noo, pt.prob_nono) for pt in out],
                np.geomspace(x["g_min"], x["g_max"], x["points"]), x["delta"])
        if x["kind"] == "info":
            return check_info_curve(
                [(pt.g, pt.lam, pt.i_a, pt.q_min) for pt in out],
                np.linspace(x["g_min"], x["g_max"], x["points"]), x["delta"])
        gs, delta = x["gs"], x["delta"]
        if len(out) != len(gs):
            return f"exact sweep returned {len(out)} points, expected {len(gs)}"
        q, p, n, mass = ref.exact_shifts(self.sel, gs, delta)
        for i, g in enumerate(gs):
            tol_q, tol_p, tol_n = _shift_tolerances(self.sel, n[i], mass, g, delta)
            msg = _first_failure(
                ref.within(f"delta_q at g={g!r}", out[i].delta_q, q[i], tol_q),
                ref.within(f"delta_p at g={g!r}", out[i].delta_p, p[i], tol_p),
                ref.within(f"postselect_prob at g={g!r}", out[i].postselect_prob, min(n[i], 1.0), tol_n),
            )
            if msg:
                return msg
        return None


def check_hardy_curve(rows, gs, delta: float) -> str | None:
    """Rows (g, OO, ONO, NOO, NONO) against the closed forms at couplings gs."""
    if len(rows) != len(gs):
        return f"hardy curve has {len(rows)} points, expected {len(gs)}"
    for (g, oo, ono, noo, nono), g_want in zip(rows, gs):
        floor = 1e-13 * max(g_want, delta) / g_want
        nono_want = ref.nono_probability(g_want, delta)
        msg = _first_failure(
            ref.within("hardy g", g, g_want, 1e-14 * g_want),
            ref.within(f"prob_oo at g={g!r}", oo, 0.0, floor),
            ref.within(f"prob_ono at g={g!r}", ono, 1.0, 1e-11 + floor),
            ref.within(f"prob_noo at g={g!r}", noo, 1.0, 1e-11 + floor),
            ref.within(f"prob_nono at g={g!r}", nono, nono_want, 1e-11 * abs(nono_want) + floor),
        )
        if msg:
            return msg
    return None


def check_info_curve(rows, gs, delta: float) -> str | None:
    """Rows (g, lambda, I_a, q_min) against the closed forms at couplings gs."""
    if len(rows) != len(gs):
        return f"info curve has {len(rows)} points, expected {len(gs)}"
    for (g, lam, i_a, q_min), g_want in zip(rows, gs):
        i_want = ref.info_gain_bits(g_want, delta)
        msgs = [
            ref.within("info g", g, g_want, 1e-14 * max(g_want, delta)),
            ref.within(f"lambda at g={g!r}", lam, ref.info_lambda(g_want, delta), 1e-14),
            ref.within(f"i_a at g={g!r}", i_a, i_want, 1e-13 + 1e-9 * i_want),
        ]
        if g_want == 0.0:
            msgs.append(None if math.isnan(q_min) else f"q_min at g=0 is {q_min!r}, expected nan")
        else:
            q_want = ref.projector_envelope(g_want, delta)[1]
            msgs.append(ref.within(f"q_min at g={g!r}", q_min, q_want, 1e-9 * abs(q_want) + 1e-15 * max(g_want, delta)))
        msg = _first_failure(*msgs)
        if msg:
            return msg
    return None


class Extremal:
    """One op = one optimize_pps search for the extremal position shifts.

    Cases: the which-path projector at d = 2 and 3 with g in {0.1, 1, 10}
    Delta, and two random Hermitian observables at d = 3 with g in [1.5, 2.5]
    Delta, where a search takes 1-1.5 s on any draw.  There is no d = 4
    Hermitian case: there the coordinate polish in optimize_pps, which has no
    evaluation cap, runs for minutes on a large share of draws (README.md),
    longer than any bounded run.
    Projector cases must reach the closed-form envelope; Hermitian cases must
    reach the best of a seeded 1000-draw random search made in set-up.
    """

    TAG = 3
    RESTARTS = 4
    # indices into the case list: 0-2 projector d=2, 3-5 projector d=3, 6-7 Hermitian d=3
    ORDER = (0, 6, 4, 2, 7, 3, 1, 5)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = _rng(seed, self.TAG)
        cases = []
        for d in (2, 3):
            a_mat = np.zeros((d, d), dtype=complex)
            a_mat[0, 0] = 1.0
            for factor in (0.1, 1.0, 10.0):
                delta = float(rng.choice(DELTAS))
                cases.append({"a": a_mat, "g": factor * delta, "delta": delta, "projector": True})
        for _ in range(2):
            delta = float(rng.choice(DELTAS))
            cases.append({"a": _hermitian(rng, 3), "g": delta * rng.uniform(1.5, 2.5),
                          "delta": delta, "projector": False})
        for i, case in enumerate(cases):
            case["seed"] = int(rng.integers(2**31))
            case["observable"] = wm.HermitianObservable(case["a"])
            case["levels"], case["vecs"] = np.linalg.eigh(case["a"])
            if case["projector"]:
                case["envelope"] = ref.projector_envelope(case["g"], case["delta"])
            else:
                case["envelope"] = ref.random_search_extremes(case["a"], case["g"], case["delta"], _rng(seed, self.TAG, 10_000 + i))
        # A fixed order, the two costly Hermitian searches spread apart, so
        # that every seed runs the same mix in a run of the same length.
        self.cases = [cases[i] for i in self.ORDER]

    def make_input(self, k: int) -> dict:
        return self.cases[k % len(self.cases)]

    def run(self, x: dict):
        return wm.optimize_pps(
            x["observable"], x["g"], wm.GaussianPointer(x["delta"]),
            objective="max", restarts=self.RESTARTS, seed=x["seed"],
        )

    def check(self, x: dict, out) -> str | None:
        g, delta = x["g"], x["delta"]
        tol = 1e-9 * max(delta, g * float(np.max(np.abs(x["levels"]))))
        q_max, q_min = x["envelope"]
        pre, post = (np.asarray(s.amplitudes) for s in out.argmax_states)
        achieved = float(ref.pure_shift(x["levels"], x["vecs"], pre, post, g, delta)[0][0])
        messages = [ref.within("argmax states delta_q", achieved, out.optimizer_best_max, tol)]
        if x["projector"]:
            messages += [
                ref.within("best q_max vs envelope", out.optimizer_best_max, q_max, tol),
                ref.within("best q_min vs envelope", out.optimizer_best_min, q_min, tol),
                ref.within("envelope q_max", out.q_max, q_max, 1e-12 * abs(q_max)),
                ref.within("envelope q_min", out.q_min, q_min, 1e-12 * abs(q_min) + 1e-15 * g),
            ]
        else:
            if out.optimizer_best_max < q_max - tol:
                messages.append(f"best q_max {out.optimizer_best_max!r} below random search {q_max!r}")
            if out.optimizer_best_min > q_min + tol:
                messages.append(f"best q_min {out.optimizer_best_min!r} above random search {q_min!r}")
            if not (math.isnan(out.q_max) and math.isnan(out.q_min)):
                messages.append("envelope reported for a non-projector observable")
        return _first_failure(*messages)


def _read_scenario(data: dict):
    """(rho, pi, A, g, delta) from scenario JSON, decoded here with numpy."""
    def matrix(node):
        return np.array([[complex(re, im) for re, im in row] for row in node])

    def state_or_operator(node, as_operator):
        if isinstance(node[0][0], list):
            return matrix(node)
        v = np.array([complex(re, im) for re, im in node])
        v = v / np.linalg.norm(v)
        return as_operator(v)

    rho = state_or_operator(data["preselect"], lambda v: np.outer(v, v.conj()))
    pi = state_or_operator(data["postselect"], lambda v: np.outer(v, v.conj()))
    return rho, pi, matrix(data["observable"]), float(data["g"]), float(data["delta"])


def _to_pairs(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


class Cli:
    """One op = one `weakmeter` subprocess, from interpreter start to exit.

    The subprocess finds the package through PYTHONPATH, which run.py sets.

    The seeded mix cycles through `run` on both bundled scenarios and on
    fresh random scenario files with a pointer_grid, `hardy-sweep`,
    `info-sweep` and `verify --suite oracle`.  Sweep sizes are kept small
    so that start-up and imports dominate, as they do for a user.
    """

    TAG = 4
    SLOTS = (
        "verify", "run:hardy_nono.json", "run:random", "hardy-sweep", "run:random",
        "run:anomalous_qubit.json", "info-sweep", "run:random", "hardy-sweep", "run:random",
    )
    CODE = "import sys; from weakmeter.cli import main; sys.exit(main())"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir  # where the random scenario files go
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.span_dir: Path | None = None  # set for traced runs
        self.bundled = {
            name: _read_scenario(json.loads((SCENARIOS / name).read_text()))
            for name in ("hardy_nono.json", "anomalous_qubit.json")
        }

    def make_input(self, k: int) -> dict:
        rng = _rng(self.seed, self.TAG, k)
        slot = self.SLOTS[k % len(self.SLOTS)]
        if slot == "verify":
            return {"k": k, "slot": slot, "args": ["verify", "--suite", "oracle"]}
        if slot == "run:random":
            path = self.workdir / f"scenario_{k}.json"
            scenario = self._random_scenario(rng)
            path.write_text(json.dumps(scenario))
            return {"k": k, "slot": slot, "args": ["run", str(path)], "scenario": _read_scenario(scenario), "grid": True}
        if slot.startswith("run:"):
            name = slot[4:]
            return {"k": k, "slot": slot, "args": ["run", name], "scenario": self.bundled[name],
                    "grid": name == "hardy_nono.json", "closed_form": name == "hardy_nono.json"}
        delta = float(rng.choice(DELTAS))
        points = int(rng.integers(60, 201))
        if slot == "hardy-sweep":
            spacing = "log" if rng.random() < 0.5 else "lin"
            g_min, g_max = delta * 10.0 ** rng.uniform(-3.0, -1.0), delta * rng.uniform(4.0, 10.0)
            args = ["hardy-sweep", "--spacing", spacing]
        else:
            spacing = "lin"
            g_min, g_max = delta * rng.uniform(0.01, 0.2), delta * rng.uniform(4.0, 10.0)
            args = ["info-sweep"]
        args += ["--g-min", repr(g_min), "--g-max", repr(g_max), "--points", str(points), "--delta", repr(delta)]
        grid = np.geomspace(g_min, g_max, points) if spacing == "log" else np.linspace(g_min, g_max, points)
        return {"k": k, "slot": slot, "args": args, "gs": grid, "delta": delta}

    @staticmethod
    def _random_scenario(rng):
        while True:
            d = int(rng.integers(2, 5))
            if rng.random() < 0.5:
                pre = _unit(rng, d)
                rho = np.outer(pre, pre.conj())
                pre_node = [[float(z.real), float(z.imag)] for z in pre]
            else:
                rho = _density(rng, d, int(rng.integers(2, d + 1)))
                pre_node = _to_pairs(rho)
            pi = _projector(_haar(rng, d)[:, : int(rng.integers(1, d))])
            a_mat = _observable(rng, d)
            delta = float(rng.choice(DELTAS))
            g = delta * 10.0 ** rng.uniform(-1.3, 0.7)
            if ref.selection(rho, pi, a_mat).prob >= 1e-3:
                break
        reach = 10.0 * delta + g * float(np.max(np.abs(np.linalg.eigvalsh(a_mat))))
        scenario = {
            "dimension": d, "observable": _to_pairs(a_mat), "preselect": pre_node,
            "postselect": _to_pairs(pi), "g": g, "delta": delta,
            "pointer_grid": {"half_width": reach + delta, "num_points": 4096},
        }
        return scenario

    def command(self, x: dict) -> list[str]:
        if self.span_dir is None:
            return [sys.executable, "-c", self.CODE, *x["args"]]
        span_file = self.span_dir / f"op_{x['k']}.json"
        return [sys.executable, str(HERE / "traced_cli.py"), str(span_file), str(x["k"]), *x["args"]]

    def run(self, x: dict):
        done = subprocess.run(self.command(x), capture_output=True, text=True, timeout=120)
        return done.returncode, done.stdout, done.stderr

    def check(self, x: dict, out) -> str | None:
        code, stdout, stderr = out
        if code != 0:
            return f"{' '.join(x['args'])}: exit code {code}: {stderr.strip()[-300:]}"
        slot = x["slot"]
        if slot == "verify":
            return check_verify_output(stdout)
        if slot.startswith("run:"):
            return check_run_output(stdout, x)
        rows = _parse_csv(stdout)
        if isinstance(rows, str):
            return rows
        if slot == "hardy-sweep":
            return check_hardy_curve(rows, x["gs"], x["delta"])
        return check_info_curve(rows, x["gs"], x["delta"])


def check_verify_output(stdout: str) -> str | None:
    lines = stdout.splitlines()
    if not any(line.split()[:2] == ["oracle", "PASS"] for line in lines if line.strip()):
        return "verify: no PASS line for the oracle suite"
    if "all checks passed" not in lines:
        return "verify: missing 'all checks passed'"
    return None


def _parse_csv(stdout: str):
    lines = stdout.splitlines()
    if len(lines) < 3 or not lines[0].startswith("# units:"):
        return "sweep CSV: missing units line or rows"
    try:
        return [tuple(float(v) for v in line.split(",")) for line in lines[2:]]
    except ValueError as exc:
        return f"sweep CSV: {exc}"


def check_run_output(stdout: str, x: dict) -> str | None:
    """`weakmeter run` key = value lines against the reference values."""
    values = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key.strip()] = value.strip()
    rho, pi, a_mat, g, delta = x["scenario"]
    needed = ["selection_prob", "weak_value_re", "weak_value_im", "delta_q_exact", "delta_p_exact",
              "delta_q_first_order", "delta_p_first_order", "delta_q_second_order", "delta_p_second_order"]
    if x["grid"]:
        needed += ["delta_q_grid", "delta_p_grid", "postselect_prob_grid", "postselect_prob"]
    missing = [k for k in needed if k not in values]
    if missing:
        return f"run: missing lines {missing}"
    v = {k: float(values[k]) for k in needed}
    sel = ref.selection(rho, pi, a_mat)
    p, na = sel.prob, sel.norm_a
    q, pm, n, mass = ref.exact_shifts(sel, g, delta)
    tol_q, tol_p, _ = _shift_tolerances(sel, float(n[0]), mass, g, delta)
    dq2, dp2, denom = ref.second_order(sel, g, delta)
    tol_2 = _second_order_tolerance(sel, g, delta, denom)
    aw = sel.weak_value
    messages = [
        ref.within("selection_prob", v["selection_prob"], min(p, 1.0), 1e-12),
        ref.within("weak_value_re", v["weak_value_re"], aw.real, 1e-10 * na / p),
        ref.within("weak_value_im", v["weak_value_im"], aw.imag, 1e-10 * na / p),
        ref.within("delta_q_exact", v["delta_q_exact"], float(q[0]), tol_q),
        ref.within("delta_p_exact", v["delta_p_exact"], float(pm[0]), tol_p),
        ref.within("delta_q_first_order", v["delta_q_first_order"], g * aw.real, 1e-10 * g * na / p),
        ref.within("delta_p_first_order", v["delta_p_first_order"], g * aw.imag / (2.0 * delta**2), 1e-10 * g * na / p / delta**2),
        ref.within("delta_q_second_order", v["delta_q_second_order"], dq2, tol_2),
        ref.within("delta_p_second_order", v["delta_p_second_order"], dp2, tol_2 / delta),
    ]
    if x["grid"]:
        messages += [
            ref.within("delta_q_grid", v["delta_q_grid"], v["delta_q_exact"], 1e-8 * delta),
            ref.within("delta_p_grid", v["delta_p_grid"], v["delta_p_exact"], 1e-8 / (2.0 * delta)),
            ref.within("postselect_prob_grid", v["postselect_prob_grid"], v["postselect_prob"], 1e-8 * v["postselect_prob"]),
        ]
    if x.get("closed_form"):
        want = g * ref.nono_probability(g, delta)
        messages.append(ref.within("delta_q_exact closed form", v["delta_q_exact"], want, 1e-12 * max(g, delta)))
    return _first_failure(*messages)


WORKLOADS = {"cli": Cli, "stream": Stream, "sweep": Sweep, "extremal": Extremal}
