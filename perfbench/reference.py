"""Reference values the benchmark checks weakmeter's outputs against.

Everything here is written directly from the formulas with math and numpy.
Nothing imports weakmeter, so a routine under test never checks itself.

Pointer model (hbar = 1): the component attached to eigenvalue a is the
Gaussian Phi(q - g a) of width delta, so with G_kl = exp(-g^2 (a_k - a_l)^2
/ (8 delta^2))

    <Phi_k|Phi_l>   = G_kl
    <Phi_k|q|Phi_l> = g (a_k + a_l) / 2 * G_kl
    <Phi_k|p|Phi_l> = i g (a_k - a_l) / (4 delta^2) * G_kl

and a selection enters only through W_kl = tr(Pi P_l rho P_k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def overlap(g: float, delta: float) -> float:
    """G = exp(-g^2 / (8 delta^2)), the overlap of two unit-split pointers."""
    return math.exp(-((g / delta) ** 2) / 8.0)


def nono_probability(g: float, delta: float) -> float:
    """Inferred NO-NO occupation of the which-path paradox: (1 - 2G)/(5 - 4G)."""
    big_g = overlap(g, delta)
    return (1.0 - 2.0 * big_g) / (5.0 - 4.0 * big_g)


def info_lambda(g: float, delta: float) -> float:
    """Larger eigenvalue (1 + G)/2 of the evenly mixed device state."""
    return 0.5 * (1.0 + overlap(g, delta))


def info_gain_bits(g: float, delta: float) -> float:
    """I_a = h2((1 + G)/2), with 1 - lambda = (1 - G)/2 formed by expm1."""
    hi = info_lambda(g, delta)
    lo = -0.5 * math.expm1(-((g / delta) ** 2) / 8.0)
    return -sum(t * math.log2(t) for t in (hi, lo) if t > 0.0)


def projector_envelope(g: float, delta: float) -> tuple[float, float]:
    """(q_max, q_min) = (g/2)(1 +/- 1/sqrt(1 - exp(-g^2/(4 delta^2)))), g > 0.

    q_min is rewritten as -(g/2) e^-x / ((1 + r) r) with r = sqrt(1 - e^-x),
    which has no cancellation at any coupling.
    """
    x = (g / delta) ** 2 / 4.0
    r = math.sqrt(-math.expm1(-x))
    return 0.5 * g * (1.0 + 1.0 / r), -0.5 * g * math.exp(-x) / ((1.0 + r) * r)


@dataclass(frozen=True)
class Selection:
    """Moments and the pointer weights of one (rho, Pi, A) selection."""

    prob: float  # tr(Pi rho)
    weak_value: complex  # tr(Pi A rho) / tr(Pi rho)
    two_sided: float  # tr(Pi A rho A) / tr(Pi rho)
    square_real: float  # Re tr(Pi A A rho) / tr(Pi rho)
    norm_a: float  # max |eigenvalue of A|
    levels: np.ndarray  # eigenvalues of A, one per eigenvector
    weights: np.ndarray  # W_kl over eigenvector pairs


def selection(rho: np.ndarray, pi: np.ndarray, a_mat: np.ndarray) -> Selection:
    """Moments and weights of a selection, from raw matrices."""
    prob = float(np.trace(pi @ rho).real)
    a_rho = a_mat @ rho
    levels, vecs = np.linalg.eigh(a_mat)
    pi_v = vecs.conj().T @ pi @ vecs
    rho_v = vecs.conj().T @ rho @ vecs
    safe = prob if prob > 0.0 else 1.0
    return Selection(
        prob=prob,
        weak_value=complex(np.trace(pi @ a_rho)) / safe,
        two_sided=float(np.trace(pi @ a_rho @ a_mat).real) / safe,
        square_real=float(np.trace(pi @ a_mat @ a_rho).real) / safe,
        norm_a=float(np.max(np.abs(levels))),
        levels=levels,
        weights=pi_v * rho_v.T,
    )


def exact_shifts(sel: Selection, gs, delta: float):
    """Exact (delta_q, delta_p, N) at each coupling in gs, plus sum |W|.

    This is the plain overlap sum, without the cancellation-free
    rearrangement the engine uses, so it is an independent route.
    """
    g = np.atleast_1d(np.asarray(gs, dtype=float))[:, None, None]
    a = sel.levels
    da = a[:, None] - a[None, :]
    sa = a[:, None] + a[None, :]
    big_g = np.exp(-((g * da) ** 2) / (8.0 * delta**2))
    w = sel.weights[None, :, :]
    n = np.sum(w * big_g, axis=(1, 2)).real
    q = np.sum(w * (g * sa / 2.0) * big_g, axis=(1, 2)).real / n
    p = np.sum(w * (1j * g * da / (4.0 * delta**2)) * big_g, axis=(1, 2)).real / n
    return q, p, n, float(np.sum(np.abs(sel.weights)))


def second_order(sel: Selection, g: float, delta: float) -> tuple[float, float, float]:
    """(delta_q, delta_p, D) of the second-order weak-value approximation."""
    var_p = 1.0 / (4.0 * delta**2)
    denom = 1.0 + g**2 * var_p * (sel.two_sided - sel.square_real)
    aw = sel.weak_value
    return g * aw.real / denom, 2.0 * g * aw.imag * var_p / denom, denom


def pure_shift(levels: np.ndarray, vecs: np.ndarray, psi_i, psi_f, g: float, delta: float):
    """(delta_q, N) for pure selections; psi_i, psi_f may be stacked (n, d)."""
    x = np.atleast_2d(psi_i) @ vecs.conj()  # <v_k|psi_i>
    y = np.atleast_2d(psi_f) @ vecs.conj()  # <v_k|psi_f>
    c = np.conj(y) * x  # c_k = <psi_f|v_k><v_k|psi_i>
    da = levels[:, None] - levels[None, :]
    sa = levels[:, None] + levels[None, :]
    big_g = np.exp(-((g * da) ** 2) / (8.0 * delta**2))
    n = np.einsum("nk,kl,nl->n", np.conj(c), big_g, c).real
    q = np.einsum("nk,kl,nl->n", np.conj(c), g * sa / 2.0 * big_g, c).real
    return q / np.where(n > 0.0, n, 1.0), n


def random_search_extremes(
    a_mat: np.ndarray, g: float, delta: float, rng: np.random.Generator,
    draws: int = 1000, floor: float = 1e-12,
) -> tuple[float, float]:
    """Largest and smallest delta_q over `draws` random pure selections."""
    d = a_mat.shape[0]
    levels, vecs = np.linalg.eigh(a_mat)

    def states():
        v = rng.standard_normal((draws, d)) + 1j * rng.standard_normal((draws, d))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    q, n = pure_shift(levels, vecs, states(), states(), g, delta)
    q = q[n > floor]
    return float(np.max(q)), float(np.min(q))


def within(what: str, got: float, want: float, tol: float) -> str | None:
    """None when |got - want| <= tol, else a message naming the check."""
    if math.isfinite(got) and abs(got - want) <= tol:
        return None
    return f"{what}: got {got!r}, expected {want!r} within {tol:.3g}"
