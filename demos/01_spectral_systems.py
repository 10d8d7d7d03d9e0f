"""Eigen systems: the spectral backbone everything else runs on.

Builds the Dirichlet Laplacian in one and two dimensions plus a
variable-coefficient operator, then sanity-checks the pieces the rest of
the package leans on: eigenvalue growth and projection/synthesis round
trips.
"""
import numpy as np

from hspde import (
    EllipticOperatorSpec,
    SpectralDomain,
    build_laplacian_system,
    build_variable_coefficient_system,
    project,
    synthesize,
)

# one-dimensional Laplacian on the unit interval, 16 retained modes
dom = SpectralDomain(dimension=1, grid_size=127, mode_cutoff=16)
lap = build_laplacian_system(dom)
print("d=1 Laplacian, first five eigenvalues:")
print(" ", np.array2string(lap.eigenvalues[:5], precision=3))
print("  continuum (k pi)^2:", np.array2string(
    (np.arange(1, 6) * np.pi) ** 2, precision=3))

# projection then synthesis is the identity on the retained span
coeffs = np.zeros(16)
coeffs[2] = 1.0
field = synthesize(lap, coeffs)
back = project(lap, field)
print("  round-trip error on mode 3:", f"{np.abs(back - coeffs).max():.2e}")

# two dimensions: tensor modes, eigenvalues are sums of axis eigenvalues
dom2 = SpectralDomain(dimension=2, grid_size=31, mode_cutoff=4)
lap2 = build_laplacian_system(dom2)
print("\nd=2 Laplacian, smallest eigenvalue:",
      f"{lap2.eigenvalues[0]:.3f} (continuum 2 pi^2 = {2 * np.pi**2:.3f})")

# variable coefficients: -(a u')' + b u' + c u, discrete spectrum again
spec = EllipticOperatorSpec(
    a=lambda x: 1.0 + 0.3 * x * (1.0 - x),
    c=lambda x: 5.0 * x * (1.0 - x),
)
varsys = build_variable_coefficient_system(
    SpectralDomain(1, 127, 16), spec)
print("\nvariable-coefficient operator:")
print("  family:", varsys.family, "| self-adjoint:", varsys.is_selfadjoint)
print("  spectrum sits above the Laplacian's:",
      bool(np.all(varsys.eigenvalues >= lap.eigenvalues - 1e-9)))
