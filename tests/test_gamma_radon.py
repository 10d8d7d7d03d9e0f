import numpy as np
import pytest

from hspde.spectral import SpectralDomain
from hspde.noise import make_cameron_martin
from hspde.gamma_radon import (
    FiniteRankOperator,
    DominationError,
    mc_gamma_norm,
    check_domination_bound,
    check_ideal_property,
    matrix_p_norm,
)


# ---------------------------------------------------------------------------
# the chi-square oracle: on a Hilbert target the squared gamma-norm of the
# identity on R^n is E|gamma|^2 = n exactly
# ---------------------------------------------------------------------------

def test_identity_estimates_sqrt_n():
    est = mc_gamma_norm(FiniteRankOperator.identity(4), p=2, samples=10_000, seed=1)
    assert abs(est.value**2 - 4.0) < 3 * est.std_error


def test_rank_one_oracle():
    # R y = y_1 f: squared norm is E gamma^2 |f|^2 = |f|^2
    f = np.array([3.0, 0.0, 4.0])
    mat = np.zeros((3, 5))
    mat[:, 1] = f
    R = FiniteRankOperator.from_matrix(mat)
    est = mc_gamma_norm(R, p=2, samples=20_000, seed=2)
    assert abs(est.value**2 - 25.0) < 3 * est.std_error


def test_zero_operator():
    R = FiniteRankOperator.from_matrix(np.zeros((4, 3)))
    est = mc_gamma_norm(R, p=2, samples=1000, seed=3)
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_seeded_determinism():
    R = FiniteRankOperator.identity(8)
    a = mc_gamma_norm(R, p=2, samples=5000, seed=9)
    b = mc_gamma_norm(R, p=2, samples=5000, seed=9)
    assert a.value == b.value and a.std_error == b.std_error
    c = mc_gamma_norm(R, p=2, samples=5000, seed=10)
    assert c.value != a.value


def test_quadrupling_samples_halves_std_error():
    R = FiniteRankOperator.identity(6)
    se1 = mc_gamma_norm(R, p=2, samples=20_000, seed=4).std_error
    se4 = mc_gamma_norm(R, p=2, samples=80_000, seed=5).std_error
    assert 0.3 < se1 / se4 / 2.0 < 1.4  # halving within +-40%


def test_basis_rotation_invariance():
    rng = np.random.default_rng(6)
    mat = rng.normal(size=(10, 6))
    R = FiniteRankOperator.from_matrix(mat)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    Rq = FiniteRankOperator.from_matrix(mat @ q)
    a = mc_gamma_norm(R, p=2, samples=40_000, seed=7)
    b = mc_gamma_norm(Rq, p=2, samples=40_000, seed=8)
    assert abs(a.value**2 - b.value**2) < 3 * np.hypot(a.std_error, b.std_error)


def test_linearity_in_scaling():
    mat = np.arange(12.0).reshape(4, 3)
    a = mc_gamma_norm(FiniteRankOperator.from_matrix(mat), p=4, samples=5000, seed=11)
    b = mc_gamma_norm(FiniteRankOperator.from_matrix(2 * mat), p=4, samples=5000, seed=11)
    assert b.value == pytest.approx(2 * a.value, rel=1e-12)


# ---------------------------------------------------------------------------
# pointwise domination envelope
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cm_spec():
    return make_cameron_martin(SpectralDomain(1, 63, 48), theta=0.0, truncation=8)


def test_envelope_matches_brute_force(cm_spec):
    R = FiniteRankOperator.multiplication(lambda pts: 1.0 + pts[:, 0], cm_spec)
    env = R.envelope()
    rng = np.random.default_rng(12)
    brute = np.zeros(R.n_out)
    for _ in range(5000):
        y = rng.standard_normal(R.rank)
        y /= np.linalg.norm(y)
        brute = np.maximum(brute, np.abs(R.matrix @ y))
    assert np.all(brute <= env + 1e-12)
    assert np.all(env <= brute * 1.25 + 1e-12)  # random probes reach most of the sup


def test_domination_violated_for_unit_g(cm_spec):
    # sup over the unit ball of N sine modes grows like sqrt(N): g = 1 cannot
    # dominate; the raised error carries the envelope so callers can rescale
    R = FiniteRankOperator.multiplication(1.0, cm_spec)
    with pytest.raises(DominationError) as info:
        check_domination_bound(R, 1.0, p=4, samples=1000, seed=0)
    assert info.value.envelope.max() > 1.0


def test_domination_holds_with_envelope_as_g():
    # theta > d/2 makes the spectral scale summable, so the norm (and the
    # ratio to |g|_p) settles as the truncation grows
    spec = make_cameron_martin(SpectralDomain(1, 63, 48), theta=1.2, truncation=8)
    R = FiniteRankOperator.multiplication(lambda pts: 1.0 + pts[:, 0], spec)
    report = check_domination_bound(R, R.envelope(), p=4, samples=4000, seed=1)
    assert np.isfinite(report["ratio"])
    assert abs(report["ratio_doubled"] - report["ratio"]) <= 0.10 * report["ratio"]


def test_domination_constant_g_callable_or_number():
    # a callable that returns one number is g on every grid point, as the
    # number itself is: same |g|_p, same ratio
    spec = make_cameron_martin(SpectralDomain(1, 63, 48), theta=1.2, truncation=8)
    R = FiniteRankOperator.multiplication(lambda pts: 1.0 + pts[:, 0], spec)
    c = float(R.envelope().max()) + 1.0
    number = check_domination_bound(R, c, p=4, samples=1000, seed=3)
    call = check_domination_bound(R, lambda pts: c, p=4, samples=1000, seed=3)
    assert number["g_norm"] == call["g_norm"] == pytest.approx(
        (63 / 64) ** 0.25 * c, rel=1e-12)
    assert number["ratio"] == call["ratio"]
    assert number["ratio_doubled"] == call["ratio_doubled"]


def test_domination_zero_multiplier(cm_spec):
    R = FiniteRankOperator.multiplication(0.0, cm_spec)
    report = check_domination_bound(R, 0.0, p=4, samples=1000, seed=2)
    assert report["mc_norm"] == 0.0
    assert report["g_norm"] == 0.0
    assert np.isnan(report["ratio"])


# ---------------------------------------------------------------------------
# ideal property
# ---------------------------------------------------------------------------

def test_ideal_identity_factors():
    R = FiniteRankOperator.identity(6)
    rep = check_ideal_property(np.eye(6), R, np.eye(6), p=2, samples=20_000, seed=3)
    assert rep["ok"]
    assert rep["left"] == pytest.approx(rep["base_norm"], rel=0.05)


def test_ideal_zero_s1():
    R = FiniteRankOperator.identity(5)
    rep = check_ideal_property(np.eye(5), R, np.zeros((5, 5)), p=2,
                               samples=2000, seed=4)
    assert rep["left"] == 0.0


def test_ideal_random_diagonal_triples():
    rng = np.random.default_rng(13)
    for trial in range(20):
        n = 8
        d1, d2 = rng.uniform(0, 1, 3), rng.uniform(0, 1, n)
        mat = rng.normal(size=(n, 3))
        R = FiniteRankOperator.from_matrix(mat)
        rep = check_ideal_property(np.diag(d2), R, np.diag(d1), p=2,
                                   samples=8000, seed=100 + trial)
        assert rep["ok"]


def test_matrix_p_norm_diagonal():
    d = np.array([0.3, 0.9, 0.5])
    for p in (2.0, 3.0, 4.0):
        assert matrix_p_norm(np.diag(d), p) == pytest.approx(0.9, abs=1e-7)


def test_matrix_p_norm_matches_svd_at_p2():
    rng = np.random.default_rng(14)
    mat = rng.normal(size=(7, 5))
    want = np.linalg.svd(mat, compute_uv=False)[0]
    assert matrix_p_norm(mat, 2.0) == pytest.approx(want, rel=1e-12)
