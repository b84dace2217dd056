"""Exact conditional pointer statistics for an impulsive von Neumann coupling.

The model: a system observable A couples to the pointer momentum through
H = g * delta(t - t0) * A (x) p, with the pointer prepared in a zero-centered
Gaussian position wavefunction of width Delta,

    Phi(q) = (2 pi Delta^2)^(-1/4) exp(-q^2 / (4 Delta^2)),

so Delta_q = Delta and Delta_p = 1/(2 Delta) (hbar = 1).  After the kick the
pointer component attached to eigenvalue a is Phi(q - g a).  Conditioning on
a postselection projector leaves a d-component Gaussian superposition whose
mean position / momentum shifts are computed here in closed form
(:func:`exact_shifts`) and, independently, by brute-force quadrature on a
grid (:func:`grid_shifts`).  The two routes share no algebra beyond the
pointer definition, which is what makes the second one an oracle for the
first.

The closed form has one path for every selection.  (rho, Pi), each
decomposed once by its own class, is contracted into pure-state amplitudes
(:func:`_selection_amplitudes`, cached).  Their column sums S0, S1 and
p = |S0|^2 are formed once (:func:`_column_sums`) for the pointer sums and
the weak moments of :mod:`.weakvalue` alike, so as g -> 0 the exact shifts
are the first-order ones bit for bit.  The g-independent terms are the
observable's level geometry (:func:`_level_geometry`), formed once per
observable object and kept in its record of facts (:func:`_level_facts`),
and each selection's fold of its weights on it (:func:`_pointer_terms`),
formed once per selection.  So a coupling costs only the overlaps, as G - 1
in pointer units, where only g / Delta enters (the caller's
:func:`_overlaps`, the one such step, or :func:`_told_apart` where the
pointers must be told apart), and one contraction (:func:`_pointer_sums`),
for one coupling or a batch.  The extremal search in :mod:`.bounds` reads
the same record, for the geometry, the unit vectors of its selections and
the projector verdict, and scores both of its selections on that geometry
and one set of overlaps; the which-path sweep in :mod:`.hardy` calls the
same contraction.  The closed forms elsewhere take g / Delta, validated and
saturated, from :func:`_ratio`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from math import inf, isfinite, pi
from typing import NamedTuple

import numpy as np

from .errors import InternalConsistencyError, OrthogonalSelectionError, UndefinedExtremeError, ValidationError
from .qcore import DensityOperator, HermitianObservable, ProjectionOperator

# Selection probabilities at or below this are treated as orthogonal:
# conditional moments are no longer trustworthy in double precision.
ORTHOGONALITY_FLOOR = 1e-14

# Tolerance on imaginary residues of quantities that are real by symmetry.
_RESIDUE_TOL = 1e-10

# The smallest normal double.
_TINY = np.finfo(float).tiny


def _check_coupling(g: float, positive: bool = False) -> float:
    """The coupling g as a float; finite and >= 0 (> 0 if `positive`), else ValidationError."""
    g = float(g)
    if not isfinite(g) or g < 0.0 or (positive and g == 0.0):
        sign = ">" if positive else ">="
        raise ValidationError(f"coupling g must be finite and {sign} 0, got {g!r}")
    return g


@dataclass(frozen=True)
class GaussianPointer:
    """A Gaussian pointer of position spread `delta` (> 0), hbar = 1.

    The momentum spread is 1/(2 delta); the wave packet is minimum
    uncertainty, Delta_q * Delta_p = 1/2.
    """

    delta: float

    def __post_init__(self) -> None:
        d = float(self.delta)
        if not isfinite(d) or d <= 0.0:
            raise ValidationError(f"pointer width must be positive and finite, got {self.delta!r}")
        object.__setattr__(self, "delta", d)

    @property
    def delta_p(self) -> float:
        return 1.0 / (2.0 * self.delta)


@dataclass(frozen=True, eq=False)
class MeasurementSetup:
    """A complete pre/postselected measurement configuration.

    Parameters
    ----------
    observable : HermitianObservable
        The system observable A.
    preselection : DensityOperator
        The initial system state rho_s.
    postselection : ProjectionOperator
        The projector Pi_f defining the selected outcome.
    g : float
        Coupling strength, >= 0 (a length, since hbar = 1 and A is
        dimensionless).
    pointer : GaussianPointer

    The selection probability tr(Pi_f rho_s) is the `postselect_prob` of
    :func:`.weakvalue.weak_moments`, read off the same amplitudes as the shifts.
    """

    observable: HermitianObservable
    preselection: DensityOperator
    postselection: ProjectionOperator
    g: float
    pointer: GaussianPointer

    def __post_init__(self) -> None:
        shape = self.observable.matrix.shape
        if self.preselection.matrix.shape != shape or self.postselection.matrix.shape != shape:
            raise ValidationError(
                "dimension mismatch: observable/preselection/postselection are "
                f"{shape[0]}/{self.preselection.dimension}/{self.postselection.dimension}"
            )
        if type(self.g) is not float or not 0.0 <= self.g < inf:
            object.__setattr__(self, "g", _check_coupling(self.g))


@dataclass(frozen=True)
class MeasurementOutcome:
    """Conditional pointer shifts and the probability of the selection.

    delta_q and delta_p are the exact conditional mean displacements of the
    pointer position and momentum; postselect_prob is the finite-g
    postselection probability (it differs from tr(Pi_f rho_s) once the
    pointer components overlap imperfectly).
    """

    delta_q: float
    delta_p: float
    postselect_prob: float

    def __post_init__(self) -> None:
        q, p, prob = values = (self.delta_q, self.delta_p, self.postselect_prob)
        if not type(q) is type(p) is type(prob) is float:
            q, p, prob = values = (float(q), float(p), float(prob))
            for f, v in zip(fields(self), values):
                object.__setattr__(self, f.name, v)
        if not (isfinite(q) and isfinite(p) and isfinite(prob)):
            name, v = next((f.name, v) for f, v in zip(fields(self), values) if not isfinite(v))
            raise ValidationError(f"measurement outcome: {name} is not finite ({v!r})")
        if not 0.0 < prob <= 1.0 + 1e-12:
            raise ValidationError(f"measurement outcome: postselect_prob {prob!r} outside (0, 1]")


# Grid points in one oracle call at most: grid_shifts holds about 72 B per
# point beside 0.75 MB of per-pass arrays at d = 8 (full-rank rho, rank-7 Pi;
# 3.2 MB at 2^15 points), so its peak stays near 10 MB; more is refused
# before allocating.
MAX_GRID_POINTS = 2**17


@dataclass(frozen=True)
class GridSpec:
    """Quadrature grid for the brute-force oracle.

    half_width is the position half-extent (the grid covers [-L, L]);
    num_points must be a power of two in 1024..MAX_GRID_POINTS.  Use
    :meth:`for_setup` to get a half-width guaranteed to contain every
    displaced pointer component with ten widths of Gaussian tail to spare.
    """

    half_width: float
    num_points: int = 4096

    def __post_init__(self) -> None:
        hw = float(self.half_width)
        if not np.isfinite(hw) or hw <= 0.0:
            raise ValidationError(f"grid half_width must be positive, got {self.half_width!r}")
        n = self.num_points
        if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
                or not 1024 <= n <= MAX_GRID_POINTS or n & (n - 1)):
            raise ValidationError(
                f"grid num_points must be a power of two in 1024..{MAX_GRID_POINTS}, got {n}"
            )
        object.__setattr__(self, "half_width", hw)
        object.__setattr__(self, "num_points", int(n))

    @classmethod
    def for_setup(cls, setup: MeasurementSetup) -> "GridSpec":
        reach = 10.0 * setup.pointer.delta + setup.g * setup.observable.max_abs_eigenvalue
        return cls(reach)


# Couplings in one sweep at most: a sweep holds about 0.5 kB per point while
# it runs, so its peak stays near 0.5 GB; more is refused before allocating.
MAX_SWEEP_POINTS = 1_000_000


def _coupling_grid(g_min: float, g_max: float, points: int, spacing: str) -> np.ndarray:
    """`points` couplings from g_min to g_max, "lin" or "log" spaced.

    Requires finite 0 <= g_min < g_max (g_min > 0 for "log") and an int or numpy
    integer (not a bool) 2 <= points <= MAX_SWEEP_POINTS.
    """
    if not np.isfinite(g_min) or not np.isfinite(g_max) or g_min < 0.0 or g_max <= g_min:
        raise ValidationError(f"need 0 <= g_min < g_max, got {g_min!r}, {g_max!r}")
    if isinstance(points, bool) or not isinstance(points, (int, np.integer)):
        raise ValidationError(f"points must be an integer, got {points!r}")
    if not 2 <= points <= MAX_SWEEP_POINTS:
        raise ValidationError(f"points must be in 2..{MAX_SWEEP_POINTS}, got {points!r}")
    if spacing == "lin":
        return np.linspace(g_min, g_max, points)
    if spacing != "log":
        raise ValidationError(f"spacing must be 'lin' or 'log', got {spacing!r}")
    if g_min == 0.0:
        raise ValidationError("log spacing requires g_min > 0")
    return np.geomspace(g_min, g_max, points)


def _nondecreasing(values: np.ndarray, gs: np.ndarray, what: str) -> None:
    """InternalConsistencyError at the first coupling where `what` decreases."""
    drops = np.flatnonzero(values[1:] < values[:-1])
    if drops.size:
        i = drops[0]
        raise InternalConsistencyError(
            f"{what} decreased between g = {float(gs[i])!r} and {float(gs[i + 1])!r}"
        )


_RATIO_CAP = 1e150  # G = exp(-(g / delta)^2 / 8) is 0 from about 77 widths: this clips no G


def _ratio(g, delta: float):
    """g / delta for couplings g >= 0, clipped at _RATIO_CAP so that it and its
    square stay finite; delta is validated as a pointer width (ValidationError)."""
    with np.errstate(over="ignore"):
        return np.minimum(np.divide(g, GaussianPointer(delta).delta), _RATIO_CAP)


def _one_minus_overlap(ratio):
    """h = 1 - G for pointers ratio = g / delta widths apart; expm1 keeps it exact as ratio -> 0."""
    return -np.expm1(np.square(ratio) / -8.0)


def _overlaps(ratio, spread: np.ndarray, span: float):
    """G - 1 at ratio = g / delta over the level spreads |a - a'| (largest
    `span`); a 1-d `ratio` gives a leading coupling axis.

    The ratio, not each product, is clipped at _RATIO_CAP / span (at the cap
    for one level), so every square stays finite, and exactly: distinct
    levels lie over 5e-10 of the span apart (the 1e-9 degeneracy merge of
    :func:`.qcore.spectral_decompose`; `from_projector` gives 0 and 1), so a
    lowered product stays above 5e140, where G = 0 either way.
    """
    cap = _RATIO_CAP / (span or 1.0)
    r = min(ratio, cap) if isinstance(ratio, float) else np.minimum(ratio, cap)[..., None]
    return np.expm1(np.square(r * spread) / -8.0)


def _told_apart(ratio, spread: np.ndarray, span: float):
    """(r, h): `ratio` = g / delta clipped as :func:`_overlaps` clips it, and
    h = 1 - G there, where every off-diagonal h (spread > 0) is a normal
    double, about r * spread >= 4.2e-154; below that the displaced pointers
    cannot be told apart, as at g = 0, and UndefinedExtremeError names the r."""
    r = np.minimum(ratio, _RATIO_CAP / (span or 1.0))
    h = -_overlaps(r, spread, span)
    blurred = (h < _TINY) & (spread > 0.0)
    if blurred.any():
        r_bad = float(np.ravel(r)[blurred.reshape(-1, spread.size).any(axis=1).argmax()])
        raise UndefinedExtremeError(f"g / delta = {r_bad!r} cannot tell the displaced pointers apart")
    return r, h


def _column_sums(c: np.ndarray, eigenvalues: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Rows S0 = sum_k c[k, r] and S1 = sum_k a_k c[k, r] of the amplitudes c
    at the levels a, and p = |S0|^2 = tr(Pi rho)."""
    s0, s1 = c.sum(axis=0), eigenvalues @ c
    return s0, s1, float(np.vdot(s0, s0).real)


class _LevelGeometry(NamedTuple):
    """An observable's level-pair geometry, over the pairs (k, l) flattened:
    every selection of the observable folds on it.  Arrays read-only; it is
    formed once per observable object, in its :class:`_LevelFacts` record."""

    coef: np.ndarray  # (K^2, 3, 1): the kernel coefficients [1, (a + a')/2, (a - a')/4]
    spread: np.ndarray  # (K^2,): |a - a'|
    span: float  # the largest spread, a_max - a_min
    reach: float  # max(1, |a|), a bound on every kernel entry


def _level_geometry(eigenvalues: np.ndarray) -> _LevelGeometry:
    """The :class:`_LevelGeometry` of the observable's ascending levels."""
    da = eigenvalues[:, None] - eigenvalues[None, :]
    coef = np.array([np.ones_like(da), (eigenvalues[:, None] + eigenvalues[None, :]) / 2.0, da / 4.0])
    lo, hi = eigenvalues[0].item(), eigenvalues[-1].item()
    coef, spread = coef.reshape(3, -1).T[:, :, None], np.abs(da).ravel()
    coef.flags.writeable = spread.flags.writeable = False  # every selection and search shares them
    # kernel entries are at most max(1, |a|): h <= 1, |qker| <= |a|, |pker| <= |a| / 2
    return _LevelGeometry(coef, spread, hi - lo, max(1.0, -lo, hi))


@dataclass(frozen=True, eq=False)
class _LevelFacts:
    """What an observable's searches and selections read that does not depend
    on g, each formed on first use; arrays read-only.  `geometry` is the
    :class:`_LevelGeometry`, `units` a unit vector e_k in the range of each
    eigenprojector P_k (P_k's largest column, normalized), one per row, and
    `is_projector` the observable's :meth:`.HermitianObservable.is_projector`."""

    observable: HermitianObservable

    @cached_property
    def geometry(self) -> _LevelGeometry:
        return _level_geometry(self.observable.eigenvalues)

    @cached_property
    def units(self) -> np.ndarray:
        pstack = self.observable.projectors
        cols = np.argmax(pstack.diagonal(axis1=1, axis2=2).real, axis=1)
        units = pstack[np.arange(len(pstack)), :, cols]
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        units.flags.writeable = False
        return units

    @cached_property
    def is_projector(self) -> bool:
        return self.observable.is_projector()


# Observables whose facts are kept at once.  Observables are frozen and hash
# by identity; the cache's references keep a key's id from being reused.
_LEVEL_FACTS_CACHE_SIZE = 16


@lru_cache(maxsize=_LEVEL_FACTS_CACHE_SIZE)
def _level_facts(observable: HermitianObservable) -> _LevelFacts:
    """The observable object's one :class:`_LevelFacts` record, so that a
    scan over g, and every selection of the observable, form its geometry
    once, whichever asks first.  The last few observables stay cached."""
    return _LevelFacts(observable)


class _PointerTerms(NamedTuple):
    """The g-independent terms of one selection's pointer sums, its fold on a
    :class:`_LevelGeometry`, over the level pairs (k, l) flattened; scalars
    Python floats.  With the column sums S0, S1 of :func:`_column_sums`,
    W = c^* c^T and the geometry's coef = [1, (a + a')/2, (a - a')/4]:
    """

    weights: np.ndarray  # (K^2, 6): coef_j * W as (re, im) pairs, j = 0, 1, 2
    spread: np.ndarray  # (K^2,): the geometry's |a - a'|
    norm_sq: float  # p = sum |S0|^2
    anchor_re: float  # Re sum S0^* S1
    anchor_im: float  # Im sum S0^* S1
    scale: float  # a bound on the absolute mass of every kernel sum
    span: float  # the geometry's largest spread, a_max - a_min


def _pointer_terms(c: np.ndarray, geometry: _LevelGeometry, column_sums: tuple) -> _PointerTerms:
    """The :class:`_PointerTerms` of amplitudes c[k, r] (a pure pair is one
    column) and their column sums, folded on the observable's level geometry."""
    w_pairs = (c.conj() @ c.T).view(float).reshape(-1, 1, 2)
    weights = (geometry.coef * w_pairs).reshape(-1, 6)
    # the geometry's reach bounds every kernel entry, so this bounds the absolute mass of every sum
    scale = float(np.vdot(c, c).real * geometry.reach + 1e-300)
    s0, s1, norm_sq = column_sums
    anchor = complex(np.vdot(s0, s1))
    return _PointerTerms(weights, geometry.spread, norm_sq, anchor.real, anchor.imag, scale, geometry.span)


def _pointer_sums(terms: _PointerTerms, e: np.ndarray):
    """Selection probability and shift numerators at each coupling.

    `terms` come from :func:`_pointer_terms`, and e = G - 1 at their spreads
    from :func:`_overlaps` (or -h of :func:`_told_apart`): 1-d for one
    coupling, (n, K^2) for n couplings.  With G = 1 + e,

        N = sum |S0|^2            + sum_kl W_kl e_kl
        q = Re sum S0^* S1        + sum_kl W_kl (a + a')/2 e_kl,    delta_q = g q / N
        p = Im sum S0^* S1 / 2 - Im sum_kl W_kl (a - a')/4 e_kl,    delta_p = (g / delta) p / (N delta)

    The g-independent parts come from the column sums S0, S1 before any
    product is formed, so N keeps its relative precision down to the
    orthogonality floor.  Returns (N, q, p, resid), resid being the worst
    imaginary residue of the (mathematically real) kernel sums relative to
    a bound on their absolute mass: Python floats for one coupling, else
    arrays over the n couplings.
    """
    if e.ndim == 1:
        n_re, n_im, q_re, q_im, p_re, p_im = (e @ terms.weights).tolist()
        imag = max(abs(n_im), abs(q_im), abs(p_re))
    else:
        # a stack of row vectors, (n, 1, K^2) @ (K^2, 6), is the 1-d product
        # above row by row, bit for bit; a 2-d gemm would round differently
        n_re, n_im, q_re, q_im, p_re, p_im = (e[:, None, :] @ terms.weights)[:, 0, :].T
        imag = np.maximum(np.maximum(abs(n_im), abs(q_im)), abs(p_re))
    return terms.norm_sq + n_re, terms.anchor_re + q_re, 0.5 * terms.anchor_im - p_im, imag / terms.scale


@dataclass(frozen=True, eq=False)
class _Selection:
    """One selection (rho, Pi, A) factored for every coupling; arrays read-only.

    `amplitudes` are the c[k, r] of :func:`_selection_amplitudes`.  Their
    column sums (:func:`_column_sums`), the pointer-sum terms folded on them
    and the observable's level geometry (:func:`_pointer_terms`,
    :func:`_level_facts`) and the weak moments' rows (`sums`) are each formed
    on first use.
    """

    amplitudes: np.ndarray
    observable: HermitianObservable

    @cached_property
    def column_sums(self) -> tuple[np.ndarray, np.ndarray, float]:
        # read-only here, where every reader shares them; the optimizer's are scratch
        s0, s1, _ = sums = _column_sums(self.amplitudes, self.observable.eigenvalues)
        s0.flags.writeable = s1.flags.writeable = False
        return sums

    @cached_property
    def terms(self) -> _PointerTerms:
        terms = _pointer_terms(self.amplitudes, _level_facts(self.observable).geometry, self.column_sums)
        terms.weights.flags.writeable = False  # shared, unlike the optimizer's
        return terms

    @cached_property
    def sums(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], float]:
        """Rows (S0, S1, S2), S_n = sum_k a_k^n c[k, r], and p = |S0|^2; S2 is formed
        only here, and overflows past levels 1e153, so readers check levels first."""
        s0, s1, prob = self.column_sums
        eigs = self.observable.eigenvalues
        s2 = (eigs * eigs) @ self.amplitudes
        s2.flags.writeable = False
        return (s0, s1, s2), prob


# Selections kept factored at once.  The operators are frozen and hash by
# identity; the cache's references keep a key's ids from being reused.
_SELECTION_CACHE_SIZE = 16


@lru_cache(maxsize=_SELECTION_CACHE_SIZE)
def _selection_amplitudes(
    rho: DensityOperator, pi: ProjectionOperator, observable: HermitianObservable
) -> _Selection:
    """Factored selection amplitudes c[k, r] = sqrt(w_m) <f_j| P_k |chi_m>.

    {f_j} is the basis of Pi's range (`pi.bras`), {w_m, chi_m} the spectral
    ensemble of rho (`rho.weights`, `rho.kets`), P_k the eigenprojectors of
    A, and r runs over the pairs (j, m): one contraction, no eigensolve.
    Every selection weight is then a sum of pure-state products,
    tr(Pi P_l rho P_k) = sum_r c[k, r]^* c[l, r], so no sum over the
    selection needs a trace or a purity test.

    The record (:class:`_Selection`) also keeps the selection's pointer-sum
    terms once they are formed, with the kernel coefficients already folded
    into the weights, so a sweep over couplings factors its selection once
    and each coupling costs one contraction.  The last few selections stay
    cached, keyed on the three operator objects; every array in the record
    is read-only, since callers share it.
    """
    eigs = observable.eigenvalues
    amplitudes = pi.bras @ observable.projectors @ (rho.kets.T * np.sqrt(rho.weights))
    c = amplitudes.reshape(len(eigs), -1)
    c.flags.writeable = False
    return _Selection(c, observable)


def exact_shifts(setup: MeasurementSetup) -> MeasurementOutcome:
    """Exact conditional pointer shifts at arbitrary coupling strength.

    With the overlaps G(a, a') = exp(-g^2 (a - a')^2 / (8 delta^2)) of the
    displaced pointers and the selection weights w(a, a') =
    tr(Pi_f P_a' rho_s P_a),

        N       = sum w G,
        delta_q = g sum w (a + a')/2 G / N,
        delta_p = i g sum w (a - a') / (4 delta^2) G / N.

    One path serves every selection: the weights are factored into
    pure-state amplitudes (:func:`_selection_amplitudes`) and the sums are
    taken in pointer units (only g / delta enters the overlaps) in a
    rearranged form that subtracts the g-independent part analytically
    (:func:`_pointer_sums`), so nearly orthogonal selections do not suffer
    catastrophic cancellation, and no power of delta can overflow.  The
    selection is factored once per (rho, Pi, A) objects and stays cached
    with every g-independent term, the kernel coefficients already folded
    into its weights, so a call at a new coupling forms only the overlaps
    G - 1 (one expm1, behind the exact clip of :func:`_overlaps`), one
    contraction (G - 1) @ weights and the checks below.

    Raises
    ------
    ValidationError
        If g / delta overflows, or a shift lies beyond the double range.
    OrthogonalSelectionError
        If the postselection probability N is at or below 1e-14.
    InternalConsistencyError
        If a mathematically real quantity develops a relative imaginary
        residue above 1e-10.
    """
    g, delta = setup.g, setup.pointer.delta
    ratio = g / delta
    if not isfinite(ratio):
        raise ValidationError(f"g / delta = {g!r} / {delta!r} overflows")
    terms = _selection_amplitudes(setup.preselection, setup.postselection, setup.observable).terms
    # Python floats from here on: an out-of-range shift becomes inf, which
    # MeasurementOutcome rejects, rather than a numpy overflow warning
    n_val, q_num, p_num, resid = _pointer_sums(terms, _overlaps(ratio, terms.spread, terms.span))
    if n_val <= ORTHOGONALITY_FLOOR:
        raise OrthogonalSelectionError(
            f"postselection probability {n_val:.3e} at or below 1e-14; "
            "pre- and postselection are numerically orthogonal at this coupling"
        )
    if resid > _RESIDUE_TOL:
        raise InternalConsistencyError(
            f"imaginary residue {resid:.3e} on a mathematically real pointer sum"
        )
    return MeasurementOutcome(g * (q_num / n_val), ratio * (p_num / n_val) / delta, min(n_val, 1.0))


# grid_shifts walks the grid in passes of this many points and reuses one set
# of pass arrays, the largest 8 kB per wavefunction row, rather than holding
# every row over the whole grid: fresh large arrays are mapped pages that
# fault in again on every call.  A multiple of _PHASE_TABLE.
_GRID_PASS = 512

# grid_shifts tables the momentum phases exp(-i g a p): one exp per level at
# every _PHASE_TABLE-th grid point and one at each of the _PHASE_TABLE offsets
# from it, multiplied together.  Every grid has a multiple of 64 points.
_PHASE_TABLE = 64


def grid_shifts(setup: MeasurementSetup, grid: GridSpec) -> MeasurementOutcome:
    """Brute-force oracle: the same conditional shifts by trapezoid quadrature.

    Expands the preselection into its spectral ensemble and forms the
    postselected branch amplitudes xi[(m, i), k] = sqrt(w_m) (Pi_f P_k
    |chi_m>)_i, one row per ensemble member m and detector component i.  Row
    r's pointer wavefunction is sum_k xi[r, k] Phi(q - g a_k) on a position
    grid and, as its Fourier partner, sum_k xi[r, k] exp(-i g a_k p) times
    the envelope ~ exp(-delta^2 p^2) on a momentum grid; the densities sum
    |psi_r|^2 over the rows, and the first moments are integrated directly.
    Each route is one real matrix product of the rows with the sampled
    profiles, pass by pass over the grid, and the momentum phases are the
    product of a coarse and a fine table of exponentials.  No amplitude or
    overlap formula from :func:`exact_shifts` is reused.

    The grid must satisfy half_width >= 10 * delta + g * max|a| and resolve
    the pointer with a step of at most delta / 2; the momentum grid spans 10
    momentum spreads.  Position-route and momentum-route norms are
    cross-checked (Parseval) to 1e-9 relative.
    """
    if not isinstance(grid, GridSpec):
        raise ValidationError("grid_shifts requires a GridSpec")
    g, delta = setup.g, setup.pointer.delta
    reach = 10.0 * delta + g * setup.observable.max_abs_eigenvalue
    if grid.half_width < reach * (1.0 - 1e-12):
        raise ValidationError(
            f"grid half_width {grid.half_width!r} is below the required reach {reach!r}"
        )
    step = 2.0 * grid.half_width / (grid.num_points - 1)
    if step > 0.5 * delta:
        raise ValidationError(f"grid step {step!r} does not resolve the pointer width {delta!r}")

    eigs = setup.observable.eigenvalues
    levels = eigs.size
    kets = setup.preselection.kets * np.sqrt(setup.preselection.weights)[:, None]
    # (Pi_f P_k) @ kets^T holds xi[(m, i), k] at [k, i, m]
    xi = (setup.postselection.matrix @ setup.observable.projectors @ kets.T).transpose(2, 1, 0)
    xi = xi.reshape(-1, levels)
    # |psi|^2 is the sum of squares of Re psi and Im psi, so each product
    # yields them as 2R real rows: [Re xi; Im xi] meets the real position
    # profile, and [Re xi, Re(i xi); Im xi, Im(i xi)] the cosines and sines of
    # the momentum phases.
    position_rows = np.concatenate((xi.real, xi.imag))
    momentum_rows = np.hstack((position_rows, np.concatenate((-xi.imag, xi.real))))

    n = grid.num_points
    qs = np.linspace(-grid.half_width, grid.half_width, n)
    ps = np.linspace(-10.0 * setup.pointer.delta_p, 10.0 * setup.pointer.delta_p, n)
    # Phi(q - g a) is exp(-x^2) at x = (q - g a) / (2 delta), up to its constant
    xs, centers = qs / (2.0 * delta), (g / (2.0 * delta)) * eigs
    theta = g * eigs[:, None]
    coarse = np.exp(-1j * theta * ps[::_PHASE_TABLE])[:, :, None]
    fine = np.exp(-1j * theta * ((ps[-1] - ps[0]) / (n - 1) * np.arange(_PHASE_TABLE)))

    dens_q, dens_p = np.empty(n), np.empty(n)
    profile = np.empty((levels, _GRID_PASS))
    phases = np.empty((levels, _GRID_PASS // _PHASE_TABLE, _PHASE_TABLE), dtype=complex)
    trig = np.empty((2, levels, _GRID_PASS))  # Re and Im of the phases
    waves = np.empty((position_rows.shape[0], _GRID_PASS))  # Re and Im of every row's psi
    for start in range(0, n, _GRID_PASS):
        part = slice(start, start + _GRID_PASS)
        np.subtract.outer(centers, xs[part], out=profile)
        np.square(profile, out=profile)
        np.negative(profile, out=profile)
        np.exp(profile, out=profile)
        np.matmul(position_rows, profile, out=waves)
        np.einsum("rb,rb->b", waves, waves, out=dens_q[part])
        first = start // _PHASE_TABLE
        np.multiply(coarse[:, first:first + phases.shape[1]], fine[:, None, :], out=phases)
        flat = phases.reshape(levels, _GRID_PASS)
        np.copyto(trig[0], flat.real)
        np.copyto(trig[1], flat.imag)
        np.matmul(momentum_rows, trig.reshape(2 * levels, _GRID_PASS), out=waves)
        np.einsum("rb,rb->b", waves, waves, out=dens_p[part])
    # the profiles' constants, squared: (2 pi)^(-1/4) / sqrt(delta) in position,
    # the envelope (2 / pi)^(1/4) sqrt(delta) exp(-delta^2 p^2) in momentum
    dens_q *= (2.0 * pi) ** -0.5 / delta
    dens_p *= np.square((2.0 / pi) ** 0.25 * np.sqrt(delta) * np.exp(-np.square(delta * ps)))

    norm_q = float(np.trapezoid(dens_q, qs))
    mom_q = float(np.trapezoid(qs * dens_q, qs))
    norm_p = float(np.trapezoid(dens_p, ps))
    mom_p = float(np.trapezoid(ps * dens_p, ps))

    if norm_q <= ORTHOGONALITY_FLOOR:
        raise OrthogonalSelectionError(
            f"postselection probability {norm_q:.3e} at or below 1e-14 on the grid"
        )
    if abs(norm_p - norm_q) > 1e-9 * norm_q:
        raise InternalConsistencyError(
            f"position/momentum norms disagree: {norm_q!r} vs {norm_p!r}"
        )
    return MeasurementOutcome(mom_q / norm_q, mom_p / norm_p, min(norm_q, 1.0))
