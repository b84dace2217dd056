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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import pi

import numpy as np

from .errors import InternalConsistencyError, OrthogonalSelectionError, ValidationError
from .qcore import DensityOperator, HermitianObservable, ProjectionOperator

# Selection probabilities at or below this are treated as orthogonal:
# conditional moments are no longer trustworthy in double precision.
ORTHOGONALITY_FLOOR = 1e-14

# Tolerance on imaginary residues of quantities that are real by symmetry.
_RESIDUE_TOL = 1e-10


@dataclass(frozen=True)
class GaussianPointer:
    """A Gaussian pointer of position spread `delta` (> 0), hbar = 1.

    The momentum spread is 1/(2 delta); the wave packet is minimum
    uncertainty, Delta_q * Delta_p = 1/2.
    """

    delta: float

    def __post_init__(self) -> None:
        d = float(self.delta)
        if not np.isfinite(d) or d <= 0.0:
            raise ValidationError(f"pointer width must be positive and finite, got {self.delta!r}")
        object.__setattr__(self, "delta", d)

    @property
    def delta_q(self) -> float:
        return self.delta

    @property
    def delta_p(self) -> float:
        return 1.0 / (2.0 * self.delta)

    @property
    def var_q(self) -> float:
        return self.delta**2

    @property
    def var_p(self) -> float:
        return 1.0 / (4.0 * self.delta**2)


@dataclass(frozen=True)
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

    Attributes
    ----------
    selection_prob : float
        tr(Pi_f rho_s), the g -> 0 limit of the postselection probability,
        recorded at construction.
    """

    observable: HermitianObservable
    preselection: DensityOperator
    postselection: ProjectionOperator
    g: float
    pointer: GaussianPointer
    selection_prob: float = field(init=False)

    def __post_init__(self) -> None:
        d = self.observable.dimension
        if self.preselection.dimension != d or self.postselection.dimension != d:
            raise ValidationError(
                "dimension mismatch: observable/preselection/postselection are "
                f"{d}/{self.preselection.dimension}/{self.postselection.dimension}"
            )
        g = float(self.g)
        if not np.isfinite(g) or g < 0.0:
            raise ValidationError(f"coupling g must be finite and >= 0, got {self.g!r}")
        object.__setattr__(self, "g", g)
        tr = complex(np.trace(self.postselection.matrix @ self.preselection.matrix))
        assert abs(tr.imag) < 1e-12  # trace of a product of Hermitian PSD factors
        object.__setattr__(self, "selection_prob", float(tr.real))

    @classmethod
    def from_pure(
        cls,
        observable: HermitianObservable,
        preselect,
        postselect,
        g: float,
        pointer: GaussianPointer,
    ) -> "MeasurementSetup":
        """Build a setup from pure pre- and postselection StateVectors."""
        return cls(observable, preselect.density(), postselect.projector(), g, pointer)


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
        for name in ("delta_q", "delta_p", "postselect_prob"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValidationError(f"measurement outcome: {name} is not finite ({v!r})")
            object.__setattr__(self, name, v)
        if not 0.0 < self.postselect_prob <= 1.0 + 1e-12:
            raise ValidationError(
                f"measurement outcome: postselect_prob {self.postselect_prob!r} outside (0, 1]"
            )


@dataclass(frozen=True)
class GridSpec:
    """Quadrature grid for the brute-force oracle.

    half_width is the position half-extent (the grid covers [-L, L]);
    num_points must be a power of two >= 1024.  Use :meth:`for_setup` to get
    a half-width guaranteed to contain every displaced pointer component
    with ten widths of Gaussian tail to spare.
    """

    half_width: float
    num_points: int = 4096

    def __post_init__(self) -> None:
        hw = float(self.half_width)
        if not np.isfinite(hw) or hw <= 0.0:
            raise ValidationError(f"grid half_width must be positive, got {self.half_width!r}")
        n = int(self.num_points)
        if n < 1024 or n & (n - 1):
            raise ValidationError(f"grid num_points must be a power of two >= 1024, got {n}")
        object.__setattr__(self, "half_width", hw)
        object.__setattr__(self, "num_points", n)

    @classmethod
    def for_setup(cls, setup: MeasurementSetup, num_points: int = 4096) -> "GridSpec":
        reach = 10.0 * setup.pointer.delta + setup.g * setup.observable.max_abs_eigenvalue
        return cls(reach, num_points)


def overlap_elements(a: float, a_prime: float, g: float, delta: float) -> tuple[float, float, complex]:
    """Matrix elements of 1, q, p between two displaced pointer components.

    For the Gaussian pointer, with G = exp(-g^2 (a - a')^2 / (8 delta^2)):

        <Phi_a | Phi_a'>     = G
        <Phi_a | q | Phi_a'> = g (a + a') / 2 * G
        <Phi_a | p | Phi_a'> = i g (a - a') / (4 delta^2) * G

    where Phi_a(q) = Phi(q - g a).  Returns (s, q_elem, p_elem).
    """
    if delta <= 0.0:
        raise ValidationError(f"delta must be positive, got {delta!r}")
    da = a - a_prime
    s = float(np.exp(-((g * da) ** 2) / (8.0 * delta**2)))
    q_elem = g * (a + a_prime) / 2.0 * s
    p_elem = 1j * g * da / (4.0 * delta**2) * s
    return s, q_elem, complex(p_elem)


def _overlap_kernels(eigenvalues: np.ndarray, g: float, delta: float):
    """Precomputed K x K kernels for the cancellation-free shift sums.

    Returns (h, qker, pker) with h = 1 - G elementwise (via expm1, exact for
    tiny arguments and saturating cleanly to 1 as g / delta grows),
    qker = (a + a')/2 * h, and the Hermitian momentum kernel
    pker = i g (a - a') / (4 delta^2) * h.
    """
    a = np.asarray(eigenvalues, dtype=float)
    da = a[:, None] - a[None, :]
    t = g * da / delta
    # |t| > 1e150 already gives G = 0 exactly; clipping keeps t^2 finite
    h = -np.expm1(-np.square(np.clip(t, -1e150, 1e150)) / 8.0)
    qker = (a[:, None] + a[None, :]) / 2.0 * h
    pker = 1j * (t / (4.0 * delta)) * h
    return h, qker, pker


def _amplitude_stats(c: np.ndarray, eigenvalues: np.ndarray, g: float, delta: float, kernels=None):
    """Selection probability and shift numerators from selection amplitudes.

    `c[k] = <psi_f| P_k |psi_i>` for a pure preselection and rank-one
    postselection.  Uses the identity s = 1 - h so that near-orthogonal
    selections keep full relative precision:

        N     = |sum_k c_k|^2 - sum_kl c_k* c_l h_kl
        q_num = g (Re[S0* S1]  - sum_kl c_k* c_l qker_kl)
        p_num = g Im[S0* S1] / (2 delta^2) - sum_kl c_k* c_l pker_kl

    with S0 = sum c_k, S1 = sum a_k c_k.  Returns (N, q_num, p_num, resid)
    where resid is the worst imaginary residue of the (mathematically real)
    quadratic forms, already normalized by their absolute mass.
    """
    if kernels is None:
        kernels = _overlap_kernels(eigenvalues, g, delta)
    h, qker, pker = kernels
    s0 = c.sum()
    s1 = (np.asarray(eigenvalues) * c).sum()
    anchor = np.conj(s0) * s1
    qf_n = np.vdot(c, h @ c)
    qf_q = np.vdot(c, qker @ c)
    qf_p = np.vdot(c, pker @ c)
    n_val = (np.conj(s0) * s0).real - qf_n.real
    q_num = g * (anchor.real - qf_q.real)
    p_num = g / (2.0 * delta**2) * anchor.imag - qf_p.real
    cmass = float(np.sum(np.abs(c))) ** 2 + 1e-300
    resid = max(
        abs(qf_n.imag) / (cmass * max(1.0, float(np.max(h)))),
        abs(qf_q.imag) / (cmass * max(1.0, float(np.max(np.abs(qker))))),
        abs(qf_p.imag) / (cmass * max(1.0, float(np.max(np.abs(pker.imag))))),
    )
    return float(n_val), float(q_num), float(p_num), float(resid)


def _range_vector(projector: ProjectionOperator) -> np.ndarray:
    """Unit vector spanning a rank-one projector's range."""
    vals, vecs = np.linalg.eigh(projector.matrix)
    assert vals[-1] > 0.5
    return vecs[:, -1]


def _selection_weights(setup: MeasurementSetup) -> np.ndarray:
    """w[k, l] = tr(Pi_f P_l rho_s P_k) over eigenprojector pairs (Hermitian K x K)."""
    pi = setup.postselection.matrix
    rho = setup.preselection.matrix
    pk_pi = np.stack([p.matrix @ pi for _, p in setup.observable.spectrum])
    pl_rho = np.stack([p.matrix @ rho for _, p in setup.observable.spectrum])
    return np.einsum("kij,lji->kl", pk_pi, pl_rho)


def exact_shifts(setup: MeasurementSetup) -> MeasurementOutcome:
    """Exact conditional pointer shifts at arbitrary coupling strength.

    Evaluates, with weights w(a, a') = tr(Pi_f P_a' rho_s P_a) and the
    overlap elements of :func:`overlap_elements`,

        N       = sum w s,
        delta_q = sum w q_elem / N,
        delta_p = sum w p_elem / N,

    in a rearranged form that subtracts the g-independent part analytically
    (see the module notes), so nearly orthogonal selections do not suffer
    catastrophic cancellation.  Pure preselection with a rank-one
    postselection additionally takes a factored amplitude path, which keeps
    *relative* precision in N all the way down to the orthogonality floor.

    Raises
    ------
    OrthogonalSelectionError
        If the postselection probability N is at or below 1e-14.
    InternalConsistencyError
        If a mathematically real quantity develops a relative imaginary
        residue above 1e-10.
    """
    levels = setup.observable.spectrum
    eigs = np.array([a for a, _ in levels])
    g, delta = setup.g, setup.pointer.delta

    if setup.postselection.rank == 1 and setup.preselection.is_pure():
        psi_f = _range_vector(setup.postselection)
        _, chis = setup.preselection.eigen_ensemble()
        psi_i = chis[0]
        c = np.array([np.vdot(psi_f, p.matrix @ psi_i) for _, p in levels])
        n_val, q_num, p_num, resid = _amplitude_stats(c, eigs, g, delta)
    else:
        w = _selection_weights(setup)
        h, qker, pker = _overlap_kernels(eigs, g, delta)
        t1 = complex(np.trace(setup.postselection.matrix @ setup.observable.matrix @ setup.preselection.matrix))
        n0 = setup.selection_prob
        sum_n = complex(np.sum(w * h))
        sum_q = complex(np.sum(w * qker))
        sum_p = complex(np.sum(w * pker))
        n_val = n0 - sum_n.real
        q_num = g * (t1.real - sum_q.real)
        p_num = g / (2.0 * delta**2) * t1.imag - sum_p.real
        wmass = float(np.sum(np.abs(w))) + 1e-300
        resid = max(
            abs(sum_n.imag) / (wmass * max(1.0, float(np.max(h)))),
            abs(sum_q.imag) / (wmass * max(1.0, float(np.max(np.abs(qker))))),
            abs(sum_p.imag) / (wmass * max(1.0, float(np.max(np.abs(pker.imag))))),
        )

    if resid > _RESIDUE_TOL:
        raise InternalConsistencyError(
            f"imaginary residue {resid:.3e} on a mathematically real pointer sum"
        )
    if n_val <= ORTHOGONALITY_FLOOR:
        raise OrthogonalSelectionError(
            f"postselection probability {n_val:.3e} at or below 1e-14; "
            "pre- and postselection are numerically orthogonal at this coupling"
        )
    return MeasurementOutcome(q_num / n_val, p_num / n_val, min(n_val, 1.0))


def _pointer_position_profile(qs: np.ndarray, centers: np.ndarray, delta: float) -> np.ndarray:
    """Rows of Phi(q - center) for each center; shape (K, n)."""
    norm = (2.0 * pi * delta**2) ** -0.25
    return norm * np.exp(-((qs[None, :] - centers[:, None]) ** 2) / (4.0 * delta**2))


def grid_shifts(setup: MeasurementSetup, grid: GridSpec) -> MeasurementOutcome:
    """Brute-force oracle: the same conditional shifts by trapezoid quadrature.

    Expands the preselection into its spectral ensemble, builds the
    postselected d-component pointer wavefunction on a position grid and its
    Fourier partner psi_tilde(p) ~ exp(-delta^2 p^2 - i g a p) on a momentum
    grid, and integrates the first moments directly.  No overlap formula
    from :func:`exact_shifts` is reused.

    The grid must satisfy half_width >= 10 * delta + g * max|a|; the
    momentum grid spans 10 momentum spreads.  Position-route and
    momentum-route norms are cross-checked (Parseval) to 1e-9 relative.
    """
    if not isinstance(grid, GridSpec):
        raise ValidationError("grid_shifts requires a GridSpec")
    g, delta = setup.g, setup.pointer.delta
    reach = 10.0 * delta + g * setup.observable.max_abs_eigenvalue
    if grid.half_width < reach * (1.0 - 1e-12):
        raise ValidationError(
            f"grid half_width {grid.half_width!r} is below the required reach {reach!r}"
        )

    levels = setup.observable.spectrum
    eigs = np.array([a for a, _ in levels])
    pstack = np.stack([p.matrix for _, p in levels])
    weights, chis = setup.preselection.eigen_ensemble()
    pi_f = setup.postselection.matrix

    # xi[m, k, :] = Pi_f P_k |chi_m>, the postselected branch amplitudes
    branches = np.einsum("kij,mj->mki", pstack, chis)
    xi = np.einsum("ij,mkj->mki", pi_f, branches)

    n = grid.num_points
    qs = np.linspace(-grid.half_width, grid.half_width, n)
    phi_q = _pointer_position_profile(qs, g * eigs, delta)
    psi_q = np.einsum("mkd,kn->mdn", xi, phi_q.astype(complex))
    dens_q = weights @ np.sum(np.abs(psi_q) ** 2, axis=1)
    norm_q = float(np.trapezoid(dens_q, qs))
    mom_q = float(np.trapezoid(qs * dens_q, qs))

    ps = np.linspace(-10.0 * setup.pointer.delta_p, 10.0 * setup.pointer.delta_p, n)
    envelope = (2.0 * delta**2 / pi) ** 0.25 * np.exp(-(delta**2) * ps**2)
    phi_p = envelope[None, :] * np.exp(-1j * g * np.outer(eigs, ps))
    psi_p = np.einsum("mkd,kn->mdn", xi, phi_p)
    dens_p = weights @ np.sum(np.abs(psi_p) ** 2, axis=1)
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
