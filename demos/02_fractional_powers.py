"""Fractional operator powers: three routes, one answer.

The eigen route is exact on the retained spectrum and serves as ground
truth.  The quadrature route realizes the inverse power A^(-z) through a
resolvent integral; the forward route builds A^(+z).  Both must agree
with the eigen route to near machine precision at the default node count.
"""
import numpy as np

from hspde import (
    SpectralDomain,
    balakrishnan_forward,
    build_laplacian_system,
    frac_power_eigen,
    frac_power_quadrature,
    synthesize,
)

sys = build_laplacian_system(SpectralDomain(1, 63, 16))
rng = np.random.default_rng(1)
x = synthesize(sys, rng.normal(size=16))

print("route agreement (relative L2 error against the eigen route):")
print(f"  {'z':>5} {'inverse (quadrature)':>22} {'forward':>12}")
for z in (0.25, 0.5, 0.75):
    inv = frac_power_quadrature(sys, z, x)
    fwd = balakrishnan_forward(sys, z, x)
    err_inv = np.linalg.norm(inv - frac_power_eigen(sys, -z, x)) \
        / np.linalg.norm(frac_power_eigen(sys, -z, x))
    err_fwd = np.linalg.norm(fwd - frac_power_eigen(sys, z, x)) \
        / np.linalg.norm(frac_power_eigen(sys, z, x))
    print(f"  {z:>5} {err_inv:>22.3e} {err_fwd:>12.3e}")

# powers compose: A^(-0.3) A^(-0.45) = A^(-0.75)
via_two = frac_power_quadrature(sys, 0.3, frac_power_quadrature(sys, 0.45, x))
direct = frac_power_quadrature(sys, 0.75, x)
print("\ncomposition A^-0.3 A^-0.45 vs A^-0.75:",
      f"{np.abs(via_two - direct).max():.3e}")
