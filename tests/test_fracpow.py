import numpy as np
import pytest

from hspde.spectral import (
    SpectralDomain,
    EllipticOperatorSpec,
    build_laplacian_system,
    build_variable_coefficient_system,
    diagonal_system,
    project,
    synthesize,
)
from hspde.fracpow import (
    frac_power_eigen,
    frac_power_quadrature,
    balakrishnan_forward,
)


def wnorm(sys, x):
    return float(np.sqrt(sys.weight * np.sum(np.abs(x) ** 2)))


@pytest.fixture(scope="module")
def sys149():
    return diagonal_system([1.0, 4.0, 9.0])


# ---------------------------------------------------------------------------
# eigen route (the oracle for the quadrature routes)
# ---------------------------------------------------------------------------

def test_eigen_inverse_sqrt_on_mode(sys149):
    out = frac_power_eigen(sys149, -0.5, sys149.modes[1])
    assert np.allclose(out, 0.5 * sys149.modes[1], atol=1e-14)


def test_eigen_zero_power_is_projection(sys149):
    rng = np.random.default_rng(0)
    x = rng.normal(size=3)
    px = synthesize(sys149, project(sys149, x))
    assert np.allclose(frac_power_eigen(sys149, 0.0, x), px, atol=1e-14)


def test_eigen_imaginary_power_preserves_norm(sys149):
    rng = np.random.default_rng(1)
    x = rng.normal(size=3)
    out = frac_power_eigen(sys149, 1j, x)
    assert abs(wnorm(sys149, out) - wnorm(sys149, x)) < 1e-12


@pytest.mark.parametrize("s", [-5.0, -1.0, 1.0, 5.0])
def test_imaginary_power_unitarity_exact(s):
    # operator norm of the diagonal action equals max_k |lam_k^(is)|,
    # which must be exactly 1: purely imaginary powers are unitary
    lam = np.geomspace(1.0, 1e4, 25)
    factors = np.exp(1j * s * np.log(lam))
    assert np.abs(np.abs(factors) - 1.0).max() < 1e-13


def test_power_composition_eigen(sys149):
    rng = np.random.default_rng(2)
    x = rng.normal(size=3)
    via_two = frac_power_eigen(sys149, 0.3, frac_power_eigen(sys149, 0.45, x))
    assert np.allclose(via_two, frac_power_eigen(sys149, 0.75, x), atol=1e-12)


# ---------------------------------------------------------------------------
# inverse powers by quadrature, gauged against the eigen oracle
# ---------------------------------------------------------------------------

def test_quadrature_small_spectrum(sys149):
    x = sys149.modes[0] + 0.5 * sys149.modes[1]
    got = frac_power_quadrature(sys149, 0.5, x)
    want = frac_power_eigen(sys149, -0.5, x)
    assert wnorm(sys149, got - want) / wnorm(sys149, want) < 1e-8


def test_quadrature_identity_eigenvalue():
    sys1 = diagonal_system([1.0])
    x = sys1.modes[0].copy()
    got = frac_power_quadrature(sys1, 0.5, x)
    assert np.allclose(got, x, rtol=1e-10)


def test_quadrature_z_near_zero_is_near_projection(sys149):
    rng = np.random.default_rng(3)
    x = rng.normal(size=3)
    got = frac_power_quadrature(sys149, 1e-3, x)
    px = synthesize(sys149, project(sys149, x))
    assert wnorm(sys149, got - px) / wnorm(sys149, px) < 1e-2


@pytest.mark.parametrize("z", [0.25, 0.5, 0.75])
def test_quadrature_laplacian_modes(z):
    sys = build_laplacian_system(SpectralDomain(1, 63, 16))
    rng = np.random.default_rng(4)
    x = synthesize(sys, rng.normal(size=16))
    got = frac_power_quadrature(sys, z, x)
    want = frac_power_eigen(sys, -z, x)
    assert wnorm(sys, got - want) / wnorm(sys, want) < 1e-7


def test_quadrature_eigen_agreement_wide_spectrum():
    # spec'd envelope: spectra within [1, 1e4], agreement at 1e-8
    sys = diagonal_system(np.geomspace(1.0, 1e4, 30))
    rng = np.random.default_rng(5)
    x = rng.normal(size=30)
    for z in (0.1, 0.3, 0.5, 0.7, 0.9):
        got = frac_power_quadrature(sys, z, x)
        want = frac_power_eigen(sys, -z, x)
        assert wnorm(sys, got - want) / wnorm(sys, want) < 1e-8


def test_quadrature_power_composition():
    sys = diagonal_system(np.geomspace(1.0, 100.0, 10))
    rng = np.random.default_rng(6)
    x = rng.normal(size=10)
    via_two = frac_power_quadrature(sys, 0.3, frac_power_quadrature(sys, 0.45, x))
    direct = frac_power_quadrature(sys, 0.75, x)
    assert wnorm(sys, via_two - direct) / wnorm(sys, direct) < 1e-8


def test_quadrature_nonselfadjoint_system():
    dom = SpectralDomain(1, 63, 24)
    sys = build_variable_coefficient_system(
        dom, EllipticOperatorSpec(a=lambda x: 1.0 + x / 2.0, b=2.0)
    )
    rng = np.random.default_rng(7)
    x = rng.normal(size=dom.n_points)
    got = frac_power_quadrature(sys, 0.5, x)
    want = frac_power_eigen(sys, -0.5, x)
    assert wnorm(sys, got - want) / max(wnorm(sys, want), 1e-300) < 1e-8


def test_quadrature_rejects_bad_exponent(sys149):
    for z in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="Re z"):
            frac_power_quadrature(sys149, z, sys149.modes[0])


def test_quadrature_envelope_guard():
    # an eigenvalue near e^(+-WINDOW) leaves a tail expansion that does
    # not converge, on either side of the window
    for lam in (1e13, 1e-13):
        sys = diagonal_system([lam])
        with pytest.raises(ValueError, match="envelope"):
            frac_power_quadrature(sys, 0.5, sys.modes[0])


# ---------------------------------------------------------------------------
# forward powers
# ---------------------------------------------------------------------------

def test_balakrishnan_sqrt_mode3(sys149):
    got = balakrishnan_forward(sys149, 0.5, sys149.modes[2])
    assert wnorm(sys149, got - 3.0 * sys149.modes[2]) / 3.0 < 1e-7


def test_balakrishnan_halves_compose_to_full(sys149):
    rng = np.random.default_rng(8)
    x = rng.normal(size=3)
    twice = balakrishnan_forward(sys149, 0.5, balakrishnan_forward(sys149, 0.5, x))
    ax = frac_power_eigen(sys149, 1.0, x)
    assert wnorm(sys149, twice - ax) / wnorm(sys149, ax) < 1e-6


def test_balakrishnan_zero_input(sys149):
    out = balakrishnan_forward(sys149, 0.5, np.zeros(3))
    assert np.allclose(out, 0.0)


def test_forward_inverse_roundtrip():
    sys = diagonal_system(np.geomspace(1.0, 1e3, 12))
    rng = np.random.default_rng(9)
    x = rng.normal(size=12)
    back = frac_power_quadrature(sys, 0.4, balakrishnan_forward(sys, 0.4, x))
    px = synthesize(sys, project(sys, x))
    assert wnorm(sys, back - px) / wnorm(sys, px) < 1e-8
