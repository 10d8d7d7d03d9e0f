import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hspde.spectral import (
    _grid_norm,
    SpectralDomain,
    EllipticOperatorSpec,
    build_laplacian_system,
    build_variable_coefficient_system,
    diagonal_system,
)
from hspde.fracpow import frac_power_eigen
from hspde.convolve import SimulationPlan
from hspde.noise import GProcess, make_cameron_martin


# ---------------------------------------------------------------------------
# independent oracle: dense/tridiagonal finite-difference eigensolver on the
# same interior grid.  For -u'' the FD eigenpairs are known in closed form,
#   lam_k = (4/h^2) sin^2(k pi h / 2),   v_k(j) = sin(k pi j h),
# which pins both the oracle and the convergence direction.
# ---------------------------------------------------------------------------

def fd_laplacian_eigs(m):
    h = 1.0 / (m + 1)
    k = np.arange(1, m + 1)
    return (4.0 / h**2) * np.sin(k * np.pi * h / 2.0) ** 2


def fd_operator_matrix(m, a, b, c, shift=0.0):
    xi = np.arange(1, m + 1) / (m + 1)
    h = 1.0 / (m + 1)
    av, bv, cv = (np.broadcast_to(f(xi) if callable(f) else f, xi.shape).astype(float)
                  for f in (a, b, c))
    mat = (
        np.diag(2 * av / h**2 + cv + shift)
        + np.diag(-av[:-1] / h**2 + bv[:-1] / (2 * h), 1)
        + np.diag(-av[1:] / h**2 - bv[1:] / (2 * h), -1)
    )
    return mat


def test_fd_oracle_matches_closed_form():
    m = 64
    mat = fd_operator_matrix(m, 1.0, 0.0, 0.0)
    lam = np.sort(scipy.linalg.eigvalsh(mat))
    assert np.allclose(lam, fd_laplacian_eigs(m), rtol=1e-12)


def test_laplacian_ground_mode_d1():
    dom = SpectralDomain(1, 63, 16)
    sys = build_laplacian_system(dom)
    assert sys.eigenvalues[0] == pytest.approx(np.pi**2, rel=1e-14)
    xi = dom.axis_points
    assert np.allclose(sys.modes[0], np.sqrt(2) * np.sin(np.pi * xi), atol=1e-14)


def test_fd_eigenvalues_converge_to_spectral():
    # FD oracle approaches the exact spectrum as the grid refines
    dom = SpectralDomain(1, 63, 8)
    lam_exact = build_laplacian_system(dom).eigenvalues
    for k in range(8):
        err_coarse = abs(fd_laplacian_eigs(63)[k] - lam_exact[k]) / lam_exact[k]
        err_fine = abs(fd_laplacian_eigs(127)[k] - lam_exact[k]) / lam_exact[k]
        assert err_fine < err_coarse
        assert err_fine < 4e-3


def test_laplacian_d2_low_modes():
    dom = SpectralDomain(2, 15, 2)
    sys = build_laplacian_system(dom)
    expect = np.pi**2 * np.array([2.0, 5.0, 5.0, 8.0])
    assert np.allclose(sys.eigenvalues, expect, rtol=1e-14)
    # tensor mode sampled exactly
    pts = dom.points
    probe = 2.0 * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
    assert np.allclose(sys.modes[0], probe, atol=1e-14)


def test_laplacian_shift():
    dom = SpectralDomain(1, 31, 4)
    sys = build_laplacian_system(dom, shift=5.0)
    assert sys.eigenvalues[0] == pytest.approx(5.0 + np.pi**2, rel=1e-14)
    assert sys.effective_shift == 5.0


def test_laplacian_d1_modes_are_the_sine_table_bitwise():
    # the table computed in place equals sqrt(2) * sin(k pi xi) formed anew
    dom = SpectralDomain(1, 255, 200)
    table = np.sqrt(2.0) * np.sin(np.outer(np.arange(1, 201),
                                           np.pi * dom.axis_points))
    sys = build_laplacian_system(dom)
    assert sys.modes.tobytes() == table.tobytes()
    assert sys.dual_modes.tobytes() == table.tobytes()


def tensor_loop_modes(dom, indices):
    """The dense table as the build made it row by row: ones, then each
    axis's sine factor broadcast along that axis and multiplied in."""
    sines = np.sqrt(2.0) * np.sin(np.outer(np.arange(1, dom.mode_cutoff + 1),
                                           np.pi * dom.axis_points))
    modes = np.ones((len(indices), dom.n_points))
    for axis in range(dom.dimension):
        shape = [1] * dom.dimension
        shape[axis] = dom.grid_size
        for row, idx in enumerate(indices):
            modes[row] *= np.broadcast_to(sines[idx[axis] - 1].reshape(shape),
                                          (dom.grid_size,) * dom.dimension).ravel()
    return modes


@pytest.mark.parametrize("d,m,k", [(2, 15, 6), (3, 7, 3)])
def test_lazy_table_is_the_tensor_loop_bitwise(d, m, k):
    dom = SpectralDomain(d, m, k)
    sys = build_laplacian_system(dom)
    assert sys.modes.tobytes() == tensor_loop_modes(dom, sys.basis.indices).tobytes()


@pytest.mark.parametrize("d,m,k,shift", [
    (1, 63, 32, 0.0), (1, 255, 200, 2.5), (2, 15, 6, 0.0), (2, 31, 8, 1.0),
    (3, 7, 3, 0.0), (3, 9, 4, 4.0),
])
def test_recorded_mode_values_are_the_dense_columns_bitwise(d, m, k, shift):
    # the factors give, on any sub-raster, the dense table's own bits
    sys = build_laplacian_system(SpectralDomain(d, m, k), shift=shift)
    for stride in (1, 2, 3, 8):
        ax = np.arange(stride - 1, m, stride)
        flat = np.ravel_multi_index(np.meshgrid(*([ax] * d), indexing="ij"),
                                    (m,) * d).ravel()
        got = sys.basis.values_at(ax)
        assert got.tobytes() == np.ascontiguousarray(sys.modes[:, flat]).tobytes()
        if d == 1:
            assert got.tobytes() == sys.basis.axis_values(ax).tobytes()


@pytest.mark.parametrize("d,m,k", [(1, 63, 32), (2, 15, 6), (3, 7, 3)])
def test_mode_orthonormality(d, m, k):
    dom = SpectralDomain(d, m, k)
    sys = build_laplacian_system(dom)
    gram = sys.weight * (sys.modes @ sys.modes.T)
    assert np.abs(gram - np.eye(sys.mode_count)).max() < 1e-8


def test_varcoef_matches_fd_oracle_constant_coeffs():
    dom = SpectralDomain(1, 63, 63)
    sys = build_variable_coefficient_system(dom, EllipticOperatorSpec())
    assert np.allclose(np.real(sys.eigenvalues), fd_laplacian_eigs(63), rtol=1e-10)


def test_varcoef_constant_potential_is_pure_shift():
    dom = SpectralDomain(1, 47, 47)
    sys = build_variable_coefficient_system(dom, EllipticOperatorSpec(c=7.0))
    assert np.allclose(np.real(sys.eigenvalues), fd_laplacian_eigs(47) + 7.0, rtol=1e-10)


def test_varcoef_affine_diffusion_ground_bracket():
    # 1 <= a(xi) <= 1.5 brackets the ground eigenvalue between the extreme
    # constant-coefficient problems
    dom = SpectralDomain(1, 127, 32)
    spec = EllipticOperatorSpec(a=lambda x: 1.0 + x / 2.0)
    sys = build_variable_coefficient_system(dom, spec)
    lam1 = np.real(sys.eigenvalues[0])
    fd1 = fd_laplacian_eigs(127)[0]
    assert fd1 * (1 - 1e-12) <= lam1 <= 1.5 * fd1 * (1 + 1e-12)
    assert np.abs(np.imag(sys.eigenvalues)).max() < 1e-9 * lam1


def test_varcoef_ground_eigenvalue_grid_converges():
    spec = EllipticOperatorSpec(a=lambda x: 1.0 + x / 2.0)
    vals = []
    for m in (31, 63, 127):
        sys = build_variable_coefficient_system(SpectralDomain(1, m, 4), spec)
        vals.append(np.real(sys.eigenvalues[0]))
    # second-order scheme: successive differences shrink by about 4x
    d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
    assert d2 < d1 / 2.5


def test_varcoef_biorthogonality_nonnormal():
    dom = SpectralDomain(1, 63, 40)
    spec = EllipticOperatorSpec(a=lambda x: 1.0 + x / 2.0, b=2.0)
    sys = build_variable_coefficient_system(dom, spec)
    gram = sys.weight * (np.conj(sys.dual_modes) @ sys.modes.T)
    assert np.abs(gram - np.eye(sys.mode_count)).max() < 1e-10


def test_varcoef_constant_drift_spectrum():
    # -u'' + b u' has spectrum pi^2 k^2 + b^2/4 in the continuum; the FD
    # analogue must stay real and approach it
    dom = SpectralDomain(1, 127, 8)
    sys = build_variable_coefficient_system(dom, EllipticOperatorSpec(b=2.0))
    lam = np.real(sys.eigenvalues)
    cont = np.pi**2 * np.arange(1, 9) ** 2 + 1.0
    assert np.allclose(lam, cont, rtol=5e-3)
    assert not sys.is_selfadjoint


def test_varcoef_autoshift_restores_positivity():
    dom = SpectralDomain(1, 31, 4)
    spec = EllipticOperatorSpec(c=-30.0)  # pushes ground eigenvalue below zero
    with pytest.warns(RuntimeWarning):
        sys = build_variable_coefficient_system(dom, spec)
    assert np.min(np.real(sys.eigenvalues)) == pytest.approx(1.0, abs=1e-9)
    assert sys.effective_shift > 0


def test_ellipticity_window_enforced():
    dom = SpectralDomain(1, 31, 4)
    with pytest.raises(ValueError, match="ellipticity"):
        build_variable_coefficient_system(
            dom, EllipticOperatorSpec(a=lambda x: 0.1 + 0 * x)
        )


def test_varcoef_rejects_d2():
    with pytest.raises(ValueError, match="1d"):
        build_variable_coefficient_system(
            SpectralDomain(2, 15, 4), EllipticOperatorSpec()
        )


def test_domain_validation():
    with pytest.raises(ValueError):
        SpectralDomain(1, 16, 32)  # cutoff beyond grid
    with pytest.raises(ValueError):
        SpectralDomain(4, 16, 4)


@pytest.mark.parametrize("field, value", [
    ("dimension", 1.0), ("dimension", True), ("grid_size", 1.5),
    ("grid_size", 16.0), ("grid_size", "16"), ("mode_cutoff", 4.5),
    ("mode_cutoff", True), ("mode_cutoff", None),
])
def test_domain_refuses_non_integer_fields(field, value):
    # named for the field itself, not for a range check it happens to fail
    args = {"dimension": 1, "grid_size": 16, "mode_cutoff": 4, field: value}
    with pytest.raises(ValueError,
                       match=f"^{field} must be an integer, got {value!r}$"):
        SpectralDomain(**args)
    # numpy integers are integers
    assert SpectralDomain(np.int64(2), np.int32(15), np.int64(3)).n_points == 225


# ---------------------------------------------------------------------------
# one principal power
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("power", [0.25, 0.5, 0.75, 1.0])
def test_fractional_semigroup_decays_at_the_drift_exponents_bitwise(power):
    # one principal power serves both: A^power on an eigenmode is mu_k times
    # the mode, mu = the drift exponents of the plan at alpha = 2 power
    system = diagonal_system([1.0, 4.0, 9.0])
    plan = SimulationPlan(system=system,
                          noise=make_cameron_martin(system.domain, 0.0, 3),
                          G=GProcess.identity(), seed=0, alpha=2.0 * power)
    assert np.isrealobj(plan.drift_exponents)
    for k in range(3):
        out = frac_power_eigen(system, power, system.modes[k])
        assert np.array_equal(out, system.modes[k] * plan.drift_exponents[k])


# ---------------------------------------------------------------------------
# the weighted grid L^p norm
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(x=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 40)),
                elements=st.floats(-1e6, 1e6, allow_subnormal=False)),
       weight=st.floats(1e-4, 1.0), p=st.sampled_from([1, 2, 3, 4, 8]),
       imag=st.booleans())
def test_grid_norm_equals_the_axis_expressions_bitwise(x, weight, p, imag):
    # the expressions it replaced: (w sum |x|^p)^(1/p) along an axis, and
    # sqrt(w sum |x|^2) on complex mode tables
    if imag:
        x = x + 1j * x[::-1]
    for axis in (0, 1, -1):
        want = (weight * np.sum(np.abs(x) ** p, axis=axis)) ** (1.0 / p)
        assert np.array_equal(_grid_norm(x, weight, p, axis=axis), want)
        if p == 2:
            want = np.sqrt(weight * np.sum(np.abs(x) ** 2, axis=axis))
            assert np.array_equal(_grid_norm(x, weight, p, axis=axis), want)
    # a full reduction: sqrt at p = 2 (as along an axis), else scalar pow
    whole = weight * np.sum(np.abs(x) ** p)
    want = np.sqrt(whole) if p == 2 else whole ** (1.0 / p)
    assert _grid_norm(x, weight, p) == want
    assert _grid_norm(x.ravel(), weight, p, axis=0) == want
