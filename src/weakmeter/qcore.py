"""Finite-dimensional state and operator primitives.

Conventions used throughout the package: hbar = 1, all Hilbert spaces are
finite dimensional with 2 <= d <= 8 wherever a spectral decomposition is
required, and entropies are reported in bits (base-2 logarithms).

The classes here are thin, validated, immutable wrappers around complex
numpy arrays.  Validation happens once at construction; downstream modules
then trust the invariants (unit norm, hermiticity, idempotency, ...) and
only re-check what is cheap.  Each operator is decomposed once, too.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite

import numpy as np

from .errors import InternalConsistencyError, ValidationError

# Construction-time tolerances.  Hermiticity/trace/norm checks are at the
# rounding floor; idempotency and PSD checks are looser because they square
# the input.
_ATOL_NORM = 1e-12
_ATOL_HERMITIAN = 1e-12
_ATOL_TRACE = 1e-12
_ATOL_IDEMPOTENT = 1e-10
_MIN_EIGENVALUE = -1e-10

# Spectral decompositions are restricted to desk scale.
_MAX_SPECTRAL_DIM = 8

# Relative gap below which adjacent eigenvalues are treated as degenerate.
_DEGENERACY_GAP = 1e-9

# Entries past this magnitude can overflow when an observable is symmetrized.
_HALF_DOUBLE_MAX = 0.5 * sys.float_info.max


def _as_complex_matrix(matrix: object, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{what}: expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 2:
        raise ValidationError(f"{what}: dimension must be >= 2, got {m.shape[0]}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{what}: matrix contains non-finite entries")
    return m


def _check_hermitian(m: np.ndarray, what: str, atol: float = _ATOL_HERMITIAN) -> None:
    with np.errstate(over="ignore"):  # an asymmetry beyond the double range reads as inf
        asym = float(np.abs(m - m.conj().T).max())
    if asym > atol:
        raise ValidationError(f"{what}: not Hermitian (max asymmetry {asym:.3e} > {atol:.1e})")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


def _pairwise_sum(z: list[complex]) -> complex:
    """The sum numpy's add.reduce gives for these values, bit for bit: four
    running sums in blocks of up to 64, halved recursively beyond that.
    Python arithmetic, so a sum past the double range is inf or NaN, with no
    warning."""
    n = len(z)
    if n < 4:
        return sum(z, 0j)
    if n > 64:
        half = n // 8 * 4
        return _pairwise_sum(z[:half]) + _pairwise_sum(z[half:])
    acc = z[:4]
    for i in range(4, n - n % 4, 4):
        acc = [a + b for a, b in zip(acc, z[i:i + 4])]
    return sum(z[n - n % 4:], 0j + ((acc[0] + acc[1]) + (acc[2] + acc[3])))


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized pure state |psi> on a d-dimensional Hilbert space.

    Parameters
    ----------
    amplitudes : array_like of complex, shape (d,)
        Components in the computational basis.  Must have unit norm within
        1e-12; d >= 2.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.ndim != 1:
            raise ValidationError(f"state vector: expected a 1-d array, got shape {a.shape}")
        if a.shape[0] < 2:
            raise ValidationError(f"state vector: dimension must be >= 2, got {a.shape[0]}")
        if not np.all(np.isfinite(a.view(float))):
            raise ValidationError("state vector: non-finite amplitude")
        with np.errstate(over="ignore"):  # a norm past the double range reads as inf
            norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > _ATOL_NORM:
            raise ValidationError(f"state vector: norm {norm!r} differs from 1 by more than 1e-12")
        object.__setattr__(self, "amplitudes", _freeze(a))

    @property
    def dimension(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def _built(cls, amplitudes: np.ndarray) -> "StateVector":
        """A complex 1-d array of d >= 2 that the library built as a unit
        vector, kept without a copy and marked read-only: the caller gives
        up the array.  One vdot checks what the public constructor checks of
        its values: a non-finite amplitude makes the norm NaN or inf, and the
        norm must be 1 within 1e-12 (ValidationError)."""
        norm = float(np.sqrt(np.vdot(amplitudes, amplitudes).real))
        if not abs(norm - 1.0) <= _ATOL_NORM:  # NaN fails too
            raise ValidationError(f"state vector: norm {norm!r} differs from 1 by more than 1e-12")
        amplitudes.flags.writeable = False
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state

    @classmethod
    def normalized(cls, amplitudes: object) -> "StateVector":
        """Normalize an arbitrary nonzero vector into a StateVector."""
        a = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(a)
        if norm == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return cls(a / norm)

    def density(self) -> "DensityOperator":
        """The rank-one density operator |psi><psi|."""
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))

    def projector(self) -> "ProjectionOperator":
        """The rank-one projector |psi><psi|."""
        return ProjectionOperator(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A density operator: Hermitian, positive semidefinite, unit trace.

    Hermiticity and trace are enforced within 1e-12; eigenvalues may dip to
    -1e-10 to absorb rounding from upstream algebra.  The eigensolve that
    checks this keeps `weights` (eigenvalues above 1e-15, descending) and
    `kets` (the matching unit eigenvectors, one per row).
    """

    matrix: np.ndarray
    weights: np.ndarray = field(init=False, repr=False)
    kets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = _as_complex_matrix(self.matrix, "density operator")
        _check_hermitian(m, "density operator")
        tr = _pairwise_sum(m.diagonal().tolist())  # m.trace(), bit for bit
        if not abs(tr - 1.0) <= _ATOL_TRACE:  # NaN fails too
            shown = tr.real if tr.imag == 0.0 else tr  # a plain number: 1.2, or (1+4e-12j)
            raise ValidationError(
                f"density operator: trace {shown!r} differs from 1 by more than 1e-12"
            )
        vals, vecs = np.linalg.eigh(m)
        v = vals.tolist()
        if v[0] < _MIN_EIGENVALUE:
            raise ValidationError(f"density operator: negative eigenvalue {v[0]:.3e} < -1e-10")
        # eigh's eigenvalues ascend, so those above 1e-15, descending, are the last ones reversed
        kept = bisect_right(v, 1e-15)
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "weights", _freeze(vals[kept:][::-1]))
        object.__setattr__(self, "kets", _freeze(vecs[:, kept:][:, ::-1].T))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class ProjectionOperator:
    """An orthogonal projector: Hermitian and idempotent within 1e-10."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _as_complex_matrix(self.matrix, "projector")
        _check_hermitian(m, "projector")
        # A Hermitian idempotent has |m_ij| <= 1, and a Hermitian m with an
        # entry beyond 2 has an eigenvalue beyond 2, so max |m^2 - m| > 2 / d:
        # such an m is refused without forming m @ m, which could overflow.
        big = float(np.abs(m).max())
        if not big <= 2.0:
            raise ValidationError(f"projector: not idempotent (entry of modulus {big:.3e} > 2)")
        drift = float(np.abs(m @ m - m).max())
        if not drift <= _ATOL_IDEMPOTENT:  # NaN fails too
            raise ValidationError(f"projector: not idempotent (max |P^2 - P| = {drift:.3e} > 1e-10)")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def bras(self) -> np.ndarray:
        """Orthonormal basis of the range, conjugated, one vector per row; shape (rank, d)."""
        vals, vecs = np.linalg.eigh(self.matrix)
        # a projector's eigenvalues are 0 or 1, and eigh's ascend: the range is the last columns
        return _freeze(vecs[:, bisect_right(vals.tolist(), 0.5):].conj().T)

    @property
    def rank(self) -> int:
        return len(self.bras)

    @classmethod
    def identity(cls, dimension: int) -> "ProjectionOperator":
        return cls(np.eye(dimension, dtype=complex))

    def complement(self) -> "ProjectionOperator":
        """The projector onto the orthogonal complement, I - P."""
        return ProjectionOperator(np.eye(self.dimension, dtype=complex) - self.matrix)


def _check_spectral_dimension(d: int) -> None:
    if d > _MAX_SPECTRAL_DIM:
        raise ValidationError(f"observable: spectral decomposition supports d <= 8, got d = {d}")


def spectral_decompose(matrix: object) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition H = sum_k a_k P_k with degenerate levels merged.

    Returns read-only arrays: the distinct eigenvalues a_k in ascending
    order, shape (K,), and their projectors P_k, shape (K, d, d).
    Eigenvalues within 1e-9 * ||H|| of each other (chained through adjacent
    gaps) are treated as one degenerate level with a single rank-r projector.
    The decomposition is checked to rebuild H: P_k^2 = P_k and sum_k P_k = I
    within 1e-10, and sum_k a_k P_k = H within 1e-10 * max(1, ||H||).

    Parameters
    ----------
    matrix : array_like, shape (d, d), d <= 8
        Hermitian within 1e-10 (scaled by max(1, ||H||)).

    Raises
    ------
    ValidationError
        If the matrix is not square, not Hermitian within tolerance, or
        d > 8, or if its symmetrized entries, its level span or the sum
        over a degenerate level overflow the double range; or if a merged
        level's mean rebuilds H only beyond 1e-10 * max(1, ||H||), which
        happens when the eigenvalues chained into it spread wider than that
        (diag(0, 1, 1 + 5e-10) is refused).
    InternalConsistencyError
        If the projectors are not idempotent or complete within 1e-10,
        which eigh's orthonormal eigenvectors rule out.
    """
    return _decompose(_as_complex_matrix(matrix, "observable"))


def _decompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`spectral_decompose` of a matrix that passed :func:`_as_complex_matrix`."""
    d = m.shape[0]
    _check_spectral_dimension(d)
    scale = max(1.0, float(np.abs(m).max()))
    _check_hermitian(m, "observable", atol=1e-10 * scale)
    if scale > _HALF_DOUBLE_MAX:  # below this, m + m^H cannot overflow
        with np.errstate(over="ignore"):
            finite = np.isfinite(m + m.conj().T).all()
        if not finite:
            raise ValidationError("observable: symmetrized entries overflow the double range")

    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    v = vals.tolist()  # ascending Python floats: an overflow gives inf, no warning
    span = v[-1] - v[0]
    if not isfinite(span):
        raise ValidationError(f"observable: level span {span!r} is not finite")
    norm = max(abs(v[0]), abs(v[-1]))
    size = _level_sizes(v, norm)
    # a level's sum is at most its size times norm, which can overflow only past d * norm
    if not isfinite(d * norm) and not isfinite(max(size) * norm):
        raise ValidationError("observable: a degenerate level sums beyond the double range")
    member = np.eye(len(size), dtype=bool).repeat(size, axis=1)  # (K, d): eigenvector j in level k
    eigenvalues = (member @ vals) / size
    projectors = (vecs * member[:, None, :]) @ vecs.conj().T
    projectors = (projectors + projectors.conj().transpose(0, 2, 1)) / 2.0
    _check_decomposition(m, eigenvalues, projectors, norm)
    eigenvalues.flags.writeable = projectors.flags.writeable = False
    return eigenvalues, projectors


def _level_sizes(vals: list[float], norm: float) -> list[int]:
    """How many of the ascending eigenvalues `vals` each level holds: a new
    level starts after every gap wider than 1e-9 * norm."""
    tol = _DEGENERACY_GAP * norm
    starts = [0, *(j for j in range(1, len(vals)) if vals[j] - vals[j - 1] > tol), len(vals)]
    return [b - a for a, b in zip(starts, starts[1:])]


def _check_decomposition(
    m: np.ndarray, eigenvalues: np.ndarray, projectors: np.ndarray, norm: float
) -> None:
    """The identities callers lean on, as raises that `python -O` keeps.

    P_k^2 = P_k and sum_k P_k = I within 1e-10 hold to rounding for eigh's
    orthonormal eigenvectors (InternalConsistencyError if not); sum_k a_k P_k
    = m within 1e-10 * max(1, norm) fails when a level merges eigenvalues
    spread wider than that (ValidationError).  The sums run over the
    projectors flattened to one row per level.
    """
    d = m.shape[0]
    flat = projectors.reshape(len(eigenvalues), d * d)
    drift = float(np.abs(projectors @ projectors - projectors).max())
    if not drift <= _ATOL_IDEMPOTENT:
        raise InternalConsistencyError(f"observable: eigenprojectors drift by max |P^2 - P| = {drift:.3e}")
    total = flat.sum(axis=0)
    total[:: d + 1] -= 1.0  # the diagonal of I
    gap = float(np.abs(total).max())
    if not gap <= 1e-10:
        raise InternalConsistencyError(f"observable: eigenprojectors sum to I only within {gap:.3e}")
    tol = 1e-10 * max(1.0, norm)
    miss = float(np.abs(eigenvalues @ flat - m.reshape(d * d)).max())
    if not miss <= tol:
        raise ValidationError(
            "observable: eigenvalues merged within the 1e-9 degeneracy gap rebuild the "
            f"matrix only to {miss:.3e} > {tol:.3e}"
        )


@dataclass(frozen=True, eq=False)
class HermitianObservable:
    """A Hermitian observable together with its cached spectral decomposition.

    Parameters
    ----------
    matrix : array_like of complex, shape (d, d), 2 <= d <= 8
        Hermitian within 1e-10 (relative to scale).

    Attributes
    ----------
    eigenvalues : ndarray, shape (K,)
        Distinct levels in ascending order, degeneracies merged
        (see :func:`spectral_decompose`).
    projectors : ndarray, shape (K, d, d)
        The matching eigenprojectors.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)
    projectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = _as_complex_matrix(self.matrix, "observable")
        eigenvalues, projectors = _decompose(m)
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "projectors", projectors)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def max_abs_eigenvalue(self) -> float:
        return float(np.max(np.abs(self.eigenvalues)))

    def is_projector(self) -> bool:
        """True when the levels are a projector's, 0 and 1 or one of them,
        each within 1e-10: read off `eigenvalues`, the spectrum every solver
        uses, so diag(0, 1e-11) is none.  Unless a level merges spread
        eigenvalues, this is never looser than max |A^2 - A| <= 1e-10."""
        levels = self.eigenvalues.tolist()
        nearest = [round(a) for a in levels]
        drift = max(abs(a - n) for a, n in zip(levels, nearest))
        return nearest in ([0], [1], [0, 1]) and drift <= _ATOL_IDEMPOTENT

    @classmethod
    def from_projector(cls, projector: ProjectionOperator) -> "HermitianObservable":
        """The projector as an observable, with no eigensolve of its own.

        Its spectrum is known: levels 0 and 1 with eigenprojectors I - P and
        P, or the single level 0 (rank 0) or 1 (rank d) with projector I - P
        or P.  The rank is read off the projector's basis of its range.
        """
        d = projector.dimension
        _check_spectral_dimension(d)
        p = projector.matrix
        rank = projector.rank
        if rank == 0:
            levels, stack = [0.0], [np.eye(d) - p]
        elif rank == d:
            levels, stack = [1.0], [p]
        else:
            levels, stack = [0.0, 1.0], [np.eye(d) - p, p]
        observable = object.__new__(cls)
        object.__setattr__(observable, "matrix", p)
        object.__setattr__(observable, "eigenvalues", _freeze(np.array(levels)))
        object.__setattr__(observable, "projectors", _freeze(np.array(stack)))
        return observable


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Von Neumann entropy S(rho) = -sum_i p_i log2 p_i, in bits.

    Reads the spectral weights of `rho`, which omit eigenvalues at or below
    1e-15 (0 * log 0 = 0).  The result lies in [0, log2 d].
    """
    return max(float(-np.sum(rho.weights * np.log2(rho.weights))), 0.0)

