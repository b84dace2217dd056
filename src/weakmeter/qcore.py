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
from dataclasses import dataclass, field
from functools import cached_property
from math import isfinite

import numpy as np

from .errors import ValidationError

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
    if not np.all(np.isfinite(m.view(float))):
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
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > _ATOL_NORM:
            raise ValidationError(f"state vector: norm {norm!r} differs from 1 by more than 1e-12")
        object.__setattr__(self, "amplitudes", _freeze(a))

    @property
    def dimension(self) -> int:
        return self.amplitudes.shape[0]

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
        with np.errstate(over="ignore", invalid="ignore"):  # past the double range: inf or NaN
            tr = m.trace()
        if not abs(tr - 1.0) <= _ATOL_TRACE:  # NaN fails too
            raise ValidationError(f"density operator: trace {tr!r} differs from 1 by more than 1e-12")
        vals, vecs = np.linalg.eigh(m)
        if vals[0] < _MIN_EIGENVALUE:
            raise ValidationError(f"density operator: negative eigenvalue {vals[0]:.3e} < -1e-10")
        order = np.argsort(vals)[::-1]
        keep = order[vals[order] > 1e-15]
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "weights", _freeze(vals[keep]))
        object.__setattr__(self, "kets", _freeze(vecs[:, keep].T))

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
        return _freeze(vecs[:, vals > 0.5].conj().T)  # a projector's eigenvalues are 0 or 1

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

    Parameters
    ----------
    matrix : array_like, shape (d, d), d <= 8
        Hermitian within 1e-10 (scaled by max(1, ||H||)).

    Raises
    ------
    ValidationError
        If the matrix is not square, not Hermitian within tolerance, or
        d > 8, or if its symmetrized entries, its level span or the sum
        over a degenerate level overflow the double range.
    """
    m = _as_complex_matrix(matrix, "observable")
    d = m.shape[0]
    _check_spectral_dimension(d)
    scale = max(1.0, float(np.max(np.abs(m))))
    _check_hermitian(m, "observable", atol=1e-10 * scale)
    if scale > _HALF_DOUBLE_MAX:  # below this, m + m^H cannot overflow
        with np.errstate(over="ignore"):
            finite = np.isfinite(m + m.conj().T).all()
        if not finite:
            raise ValidationError("observable: symmetrized entries overflow the double range")

    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    span = float(vals[-1]) - float(vals[0])  # Python floats: an overflow gives inf, no warning
    if not isfinite(span):
        raise ValidationError(f"observable: level span {span!r} is not finite")
    norm = float(np.max(np.abs(vals)))
    # a new level starts after every gap wider than the degeneracy tolerance
    level = np.concatenate(([0], np.cumsum(np.diff(vals) > _DEGENERACY_GAP * norm)))
    member = level == np.arange(level[-1] + 1)[:, None]  # (K, d): eigenvector j in level k
    size = member.sum(axis=1)
    # a level's sum is at most its size times norm, which can overflow only past d * norm
    if not isfinite(d * norm) and not isfinite(float(size.max()) * norm):
        raise ValidationError("observable: a degenerate level sums beyond the double range")
    eigenvalues = (member @ vals) / size
    projectors = (vecs * member[:, None, :]) @ vecs.conj().T
    projectors = (projectors + projectors.conj().transpose(0, 2, 1)) / 2.0

    # eigh guarantees all three identities to rounding; recheck because
    # callers lean on them for completeness sums.
    assert float(np.max(np.abs(projectors @ projectors - projectors))) <= _ATOL_IDEMPOTENT
    assert float(np.max(np.abs(projectors.sum(axis=0) - np.eye(d)))) <= 1e-10
    rebuilt = np.tensordot(eigenvalues, projectors, axes=1)
    assert float(np.max(np.abs(rebuilt - m))) <= 1e-10 * max(1.0, norm)
    return _freeze(eigenvalues), _freeze(projectors)


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
        eigenvalues, projectors = spectral_decompose(m)
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

