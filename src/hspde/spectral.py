"""Spectral representations of second-order elliptic generators on (0,1)^d.

The simulator works entirely in eigencoordinates: an operator is carried
around as an ``EigenSystem`` (eigenvalues, grid-sampled eigenmodes and a
bi-orthogonal dual system), and everything downstream (fractional powers,
stochastic convolutions) is a diagonal action on the projected
coefficients.

Two constructions are provided:

* ``build_laplacian_system`` -- the Dirichlet Laplacian on (0,1)^d with its
  exact eigenpairs (tensor sine modes) on a uniform interior grid, kept
  factored: a multi-index table, and one-axis sines computed at whichever
  axis points are asked for, so the mode values at recorded points are
  read directly.  The dense mode table is computed on each read of
  ``modes``; nothing is cached.
* ``build_variable_coefficient_system`` -- a 1d operator
  -a(xi) u'' + b(xi) u' + (c(xi) + shift) u discretised by central finite
  differences and diagonalised densely, with left/right eigenvector pairs.

Grid convention: M interior points per axis, xi_j = j/(M+1), and the grid
L^2 inner product uses the midpoint weight (M+1)^(-d) per point.  With that
weight the sampled sine modes are exactly orthonormal; ``_grid_norm`` is
its L^p norm, and ``_uniform_step`` the uniform-grid rule of every module.

The helpers shared across modules live here too: ``_principal_power`` is
the one lambda^z (principal branch) behind both the drift exponents of a
simulation plan and ``fracpow``'s eigen route, and ``_realify`` drops an
imaginary residue within IMAG_TOL and refuses a larger one.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Union

import numpy as np

__all__ = [
    "SpectralDomain",
    "EllipticOperatorSpec",
    "EigenSystem",
    "build_laplacian_system",
    "build_variable_coefficient_system",
    "diagonal_system",
    "project",
    "synthesize",
]

#: shift margin used when a supplied shift fails to make the spectrum positive
POSITIVITY_MARGIN = 1.0

#: tolerances baked into the build contracts
BIORTHO_TOL = 1e-10
RESIDUAL_TOL = 1e-8
CONDITION_LIMIT = 1e8
#: imaginary residue, relative to the real part, below which a result is real
IMAG_TOL = 1e-10

Coefficient = Union[float, np.ndarray, Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class SpectralDomain:
    """Uniform interior grid on the unit cube (0,1)^d.

    Args:
        dimension: spatial dimension, 1, 2 or 3.
        grid_size: number of interior points per axis (M).
        mode_cutoff: number of retained modes per axis (K <= M).
    """

    dimension: int
    grid_size: int
    mode_cutoff: int

    def __post_init__(self):
        for name in ("dimension", "grid_size", "mode_cutoff"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        if self.grid_size < 1:
            raise ValueError("grid_size must be at least 1")
        if not (1 <= self.mode_cutoff <= self.grid_size):
            raise ValueError(
                f"mode_cutoff must lie in [1, grid_size], got {self.mode_cutoff}"
            )

    @property
    def axis_points(self) -> np.ndarray:
        """Interior points of one axis, xi_j = j/(M+1), j = 1..M."""
        m = self.grid_size
        return np.arange(1, m + 1) / (m + 1)

    @property
    def points(self) -> np.ndarray:
        """All grid points, shape (M^d, dimension), C-order raster."""
        ax = self.axis_points
        if self.dimension == 1:
            return ax[:, None]
        grids = np.meshgrid(*([ax] * self.dimension), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    @property
    def n_points(self) -> int:
        return self.grid_size**self.dimension

    @property
    def weight(self) -> float:
        """Quadrature weight per grid point for the grid L^p norms."""
        return (self.grid_size + 1) ** (-self.dimension)


def _grid_norm(values, weight: float, p: float, axis=None):
    """(weight * sum |x|^p)^(1/p) over ``axis`` (None: all entries); sqrt at
    p = 2, which is what numpy's ``array ** 0.5`` computes."""
    total = weight * np.sum(np.abs(values) ** p, axis=axis)
    return np.sqrt(total) if p == 2 else total ** (1.0 / p)


def _uniform_step(coords, what: str) -> float:
    """The step of ``coords``: strictly increasing, gaps equal to rtol 1e-9."""
    gaps = np.diff(np.asarray(coords, dtype=float))
    if gaps.ndim != 1 or gaps.size == 0 or not gaps[0] > 0 \
            or not np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0):
        raise ValueError(f"{what} must be strictly increasing and uniform")
    return float(gaps[0])


@dataclass(frozen=True)
class EllipticOperatorSpec:
    """Coefficients of -a u'' + b u' + (c + shift) u on (0,1).

    Coefficients may be floats, arrays sampled on the interior grid, or
    callables of the grid points.  ``ellipticity`` is the constant a0 with
    a0 <= a(xi) <= 1/a0 enforced on the grid.
    """

    a: Coefficient = 1.0
    b: Coefficient = 0.0
    c: Coefficient = 0.0
    shift: float = 0.0
    ellipticity: float = 0.5

    def sampled(self, domain: SpectralDomain):
        """Coefficient arrays on the interior grid, validated."""
        if domain.dimension != 1:
            raise ValueError("variable-coefficient operators are 1d only")
        xi = domain.axis_points
        a = _sample(self.a, xi)
        b = _sample(self.b, xi)
        c = _sample(self.c, xi)
        if not (0.0 < self.ellipticity <= 1.0):
            raise ValueError("ellipticity constant must lie in (0, 1]")
        lo, hi = self.ellipticity, 1.0 / self.ellipticity
        if np.any(a < lo - 1e-12) or np.any(a > hi + 1e-12):
            raise ValueError(
                "diffusion coefficient leaves the ellipticity window "
                f"[{lo}, {hi}] on the grid"
            )
        for name, arr in (("a", a), ("b", b), ("c", c)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"coefficient {name} is not finite on the grid")
        return a, b, c


def _sample(coeff: Coefficient, xi: np.ndarray) -> np.ndarray:
    if callable(coeff):
        out = np.asarray(coeff(xi), dtype=float)
    else:
        out = np.asarray(coeff, dtype=float)
    if out.ndim == 0:
        out = np.full(xi.shape, float(out))
    if out.shape != xi.shape:
        raise ValueError(f"coefficient sample has shape {out.shape}, grid {xi.shape}")
    return out


@dataclass(frozen=True)
class DenseModes:
    """Mode and dual tables held as arrays, as the FD and synthetic systems
    (d = 1) compute them."""

    modes: np.ndarray
    dual_modes: np.ndarray

    def axis_values(self, axis_indices: np.ndarray) -> np.ndarray:
        """The modes at the grid points ``axis_indices``, (modes, points)."""
        return self.modes[:, axis_indices]


@dataclass(frozen=True)
class SineModes:
    """The Dirichlet Laplacian's modes on the grid, kept factored.

    Mode n is 2^(d/2) prod_i sin(k_i pi xi_i) over the multi-index
    k = ``indices[n]`` (rows in eigenvalue order, entries 1..K).
    ``axis_values`` samples the one-axis factors sqrt(2) sin(k pi xi_j)
    at any axis indices j, and ``values_at`` the modes on any sub-raster,
    bit for bit as the dense table holds them (numpy's sin gives an element
    the same bits wherever it sits in the array).  That table (``modes``,
    also ``dual_modes``) is computed anew on each read.
    """

    domain: SpectralDomain
    indices: np.ndarray

    def axis_values(self, axis_indices: np.ndarray) -> np.ndarray:
        """sqrt(2) sin(k pi xi_j), k = 1..K, at the axis indices j: (K, P).

        In d = 1, where ascending k is ascending eigenvalue, these are the
        modes at the grid points ``axis_indices``.
        """
        ax = self.domain.axis_points[axis_indices]
        sines = np.outer(np.arange(1, self.domain.mode_cutoff + 1), np.pi * ax)
        np.sin(sines, out=sines)
        sines *= np.sqrt(2.0)
        return sines

    def values_at(self, axis_indices: np.ndarray) -> np.ndarray:
        """The modes on the sub-raster ``axis_indices``^d, C order:
        (modes, P^d), the product taken axis by axis."""
        sines = self.axis_values(axis_indices)
        if self.domain.dimension == 1:
            return sines
        n = len(self.indices)
        out = sines[self.indices[:, 0] - 1]
        for axis in range(1, self.domain.dimension):
            out = (out[:, :, None]
                   * sines[self.indices[:, axis] - 1][:, None, :]).reshape(n, -1)
        return out

    @property
    def modes(self) -> np.ndarray:
        """The dense (modes, grid points) table."""
        return self.values_at(np.arange(self.domain.grid_size))

    dual_modes = modes


@dataclass(frozen=True)
class EigenSystem:
    """Diagonalised generator on a grid.

    ``modes[k]`` is the k-th eigenvector sampled on ``domain.points`` and
    ``dual_modes[k]`` the matching left eigenvector, normalised so that
    weight * <dual_k, mode_j> = delta_kj.  ``eigenvalues`` are ascending in
    real part and all have positive real part (the constructor shifts the
    spectrum and records ``effective_shift`` when needed).  ``basis`` holds
    the modes: dense tables, or the Laplacian's factored ``SineModes``.
    """

    domain: SpectralDomain
    eigenvalues: np.ndarray
    basis: Union[DenseModes, SineModes] = field(repr=False)
    is_selfadjoint: bool
    family: str  # "laplacian", "fd1d" or "diagonal"
    effective_shift: float

    @property
    def modes(self) -> np.ndarray:
        return self.basis.modes

    @property
    def dual_modes(self) -> np.ndarray:
        return self.basis.dual_modes

    @property
    def mode_count(self) -> int:
        return len(self.eigenvalues)

    @property
    def weight(self) -> float:
        return self.domain.weight

    def __post_init__(self):
        if np.any(np.real(self.eigenvalues) <= 0):
            raise ValueError("eigensystem constructed with nonpositive real parts")


def build_laplacian_system(domain: SpectralDomain, shift: float = 0.0) -> EigenSystem:
    """Dirichlet Laplacian (+ shift) on (0,1)^d with exact eigenpairs.

    Eigenvalues are shift + pi^2 |k|^2 over multi-indices k in {1..K}^d and
    the modes are 2^(d/2) prod_i sin(k_i pi xi_i) on the grid, ordered by
    ascending eigenvalue.  The sampled modes are exactly orthonormal in
    the weighted grid inner product.

    The modes are kept factored (``SineModes``): the build makes the
    multi-index table only, mode values at recorded points come from the
    per-axis sines, and the dense table is computed when something reads
    ``modes``.
    """
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    d, k_ax = domain.dimension, domain.mode_cutoff
    indices = np.array(list(product(range(1, k_ax + 1), repeat=d)))
    lam = shift + np.pi**2 * np.sum(indices.astype(float) ** 2, axis=1)
    order = np.argsort(lam, kind="stable")
    indices, lam = indices[order], lam[order]
    if lam[0] <= 0:
        raise ValueError("shifted Laplacian spectrum must be positive")
    return EigenSystem(
        domain=domain,
        eigenvalues=lam,
        basis=SineModes(domain, indices),
        is_selfadjoint=True,
        family="laplacian",
        effective_shift=float(shift),
    )


def build_variable_coefficient_system(
    domain: SpectralDomain, spec: EllipticOperatorSpec
) -> EigenSystem:
    """Diagonalise -a u'' + b u' + (c + shift) u by dense FD eigendecomposition.

    Central differences on the interior grid with homogeneous Dirichlet
    boundary values; the dense eigenvector matrix supplies the bi-orthogonal
    dual system.  If the requested shift leaves eigenvalues with
    nonpositive real part, the spectrum is shifted up so its minimum real
    part equals the positivity margin, and the effective shift is recorded.

    Raises:
        RuntimeError: eigenvector matrix condition number above 1e8, or
            bi-orthogonality/residual tolerances not met.
    """
    a, b, c = spec.sampled(domain)
    m = domain.grid_size
    h = 1.0 / (m + 1)

    main = 2.0 * a / h**2 + c + spec.shift
    upper = -a[:-1] / h**2 + b[:-1] / (2 * h)
    lower = -a[1:] / h**2 - b[1:] / (2 * h)
    mat = np.diag(main) + np.diag(upper, 1) + np.diag(lower, -1)

    symmetric = np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * np.abs(mat).max())
    if symmetric:
        lam, vecs = np.linalg.eigh(mat)
        lam = lam.astype(float)
    else:
        lam, vecs = np.linalg.eig(mat)
        scale = np.abs(lam).max()
        if np.abs(lam.imag).max() <= 1e-9 * scale:
            lam = lam.real
            vecs = vecs.real if np.abs(vecs.imag).max() <= 1e-9 else vecs

    cond = np.linalg.cond(vecs)
    if cond > CONDITION_LIMIT:
        raise RuntimeError(
            "eigenvector matrix is numerically non-diagonalisable "
            f"(condition number {cond:.3e} > {CONDITION_LIMIT:.0e})"
        )

    order = np.lexsort((np.imag(lam), np.real(lam)))
    lam, vecs = lam[order], vecs[:, order]

    extra = 0.0
    if np.min(np.real(lam)) <= 0:
        extra = POSITIVITY_MARGIN - float(np.min(np.real(lam)))
        lam = lam + extra
        warnings.warn(
            f"spectrum not positive at shift {spec.shift}; raised by {extra:.6g}",
            RuntimeWarning,
        )

    # normalise modes in the weighted grid norm, duals from the inverse
    w = domain.weight
    vecs = vecs / _grid_norm(vecs, w, 2, axis=0)
    duals = np.conj(np.linalg.inv(vecs)) / w  # rows pair with mode columns

    k = domain.mode_cutoff
    modes = vecs.T[:k]
    dual_modes = duals[:k]
    lam = lam[:k]

    gram = w * (np.conj(dual_modes) @ modes.T)
    bi_err = np.abs(gram - np.eye(k)).max()
    if bi_err > BIORTHO_TOL:
        raise RuntimeError(
            f"bi-orthogonality residual {bi_err:.3e} exceeds {BIORTHO_TOL:.0e}"
        )
    shifted_mat = mat + extra * np.eye(m)
    resid = shifted_mat @ modes.T - modes.T * lam[None, :]
    rel = np.linalg.norm(resid, axis=0) / (np.abs(lam) * np.linalg.norm(modes.T, axis=0))
    if rel.max() > RESIDUAL_TOL:
        raise RuntimeError(
            f"eigenpair residual {rel.max():.3e} exceeds {RESIDUAL_TOL:.0e}"
        )

    return EigenSystem(
        domain=domain,
        eigenvalues=lam,
        basis=DenseModes(modes, dual_modes),
        is_selfadjoint=bool(symmetric),
        family="fd1d",
        effective_shift=float(spec.shift + extra),
    )


def diagonal_system(eigenvalues) -> EigenSystem:
    """Synthetic system with a prescribed spectrum and indicator modes.

    Useful for exercising the spectral calculus on a bare list of
    eigenvalues; mode_k is the k-th grid indicator scaled to unit weighted
    norm, so the system is exactly orthonormal and self-adjoint.
    """
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    if lam.ndim != 1 or len(lam) == 0:
        raise ValueError("eigenvalues must be a nonempty 1d sequence")
    if np.any(lam <= 0):
        raise ValueError("synthetic spectrum must be strictly positive")
    n = len(lam)
    dom = SpectralDomain(1, n, n)
    modes = np.eye(n) * np.sqrt(n + 1.0)  # unit norm under weight 1/(n+1)
    return EigenSystem(
        domain=dom,
        eigenvalues=lam,
        basis=DenseModes(modes, modes),
        is_selfadjoint=True,
        family="diagonal",
        effective_shift=0.0,
    )


def project(system: EigenSystem, values: np.ndarray) -> np.ndarray:
    """Eigencoefficients of a grid function: c_k = weight * <dual_k, x>."""
    values = np.asarray(values)
    if values.shape[-1] != system.domain.n_points:
        raise ValueError(
            f"grid function has {values.shape[-1]} points, "
            f"domain has {system.domain.n_points}"
        )
    return system.weight * (values @ np.conj(system.dual_modes).T)


def synthesize(system: EigenSystem, coeffs: np.ndarray) -> np.ndarray:
    """Grid function from eigencoefficients: sum_k c_k mode_k."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape[-1] != system.mode_count:
        raise ValueError(
            f"{coeffs.shape[-1]} coefficients for {system.mode_count} modes"
        )
    return coeffs @ system.modes


def _realify(values: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(values):
        worst = np.abs(values.imag).max() if values.size else 0.0
        if worst > IMAG_TOL * max(1.0, np.abs(values.real).max()):
            raise RuntimeError(f"imaginary residue {worst:.3e} above {IMAG_TOL:.0e}")
        return np.ascontiguousarray(values.real)
    return values


def _principal_power(lam: np.ndarray, z: complex) -> np.ndarray:
    """lambda^z on the principal branch, exp(z log lambda) in complex
    arithmetic; ``lam`` itself for z = 1.

    An imaginary part at most IMAG_TOL of the largest real part is dropped,
    so real positive spectra under real z stay real.
    """
    if z == 1:
        return lam
    mu = np.exp(z * np.log(lam.astype(complex)))
    if np.abs(mu.imag).max() <= IMAG_TOL * np.abs(mu.real).max():
        return mu.real
    return mu
