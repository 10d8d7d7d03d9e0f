import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hspde import noise
from hspde.spectral import SpectralDomain, build_laplacian_system
from hspde.noise import (
    GProcess,
    make_cameron_martin,
    sample_wiener_increments,
    validate_noise_hypotheses,
    g_preset,
)


@pytest.fixture(scope="module")
def dom():
    return SpectralDomain(1, 63, 32)


# ---------------------------------------------------------------------------
# increment law
# ---------------------------------------------------------------------------

def _increment_tables(spec, tg, seed, reps):
    """Replicas 0..reps-1's increment tables, (reps, truncation, steps),
    from one batched fill; two of them are pinned bit for bit to
    ``sample_wiener_increments``, which draws one replica per call."""
    streams = noise._WienerStreams(spec, tg, seed, range(reps))
    tables = np.empty((reps, spec.truncation, streams.steps))
    streams.fill(tables)
    for r in (1, reps - 1):
        assert np.array_equal(
            tables[r], sample_wiener_increments(spec, tg, seed, replica=r))
    return tables


def test_increment_variance_and_cross_mode_independence(dom):
    spec = make_cameron_martin(dom, theta=0.0, truncation=4)
    tg = np.linspace(0.0, 1.0, 4)
    dt = tg[1] - tg[0]
    reps = 4000
    draws = _increment_tables(spec, tg, 42, reps)[:, :, 0]
    # (reps, modes), first increment of each stream
    cov = draws.T @ draws / reps
    se = dt * np.sqrt(2.0 / reps)
    assert np.abs(np.diag(cov) - dt).max() < 3 * se
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 3 * dt / np.sqrt(reps) * 2


def test_process_variance_grows_linearly(dom):
    spec = make_cameron_martin(dom, theta=0.0, truncation=2)
    tg = np.linspace(0.0, 2.0, 9)
    reps = 4000
    w_end = _increment_tables(spec, tg, 7, reps).sum(axis=2)
    var = w_end.var(axis=0)
    se = 2.0 * np.sqrt(2.0 / reps)
    assert np.abs(var - 2.0).max() < 3 * se


def test_disjoint_increments_uncorrelated(dom):
    spec = make_cameron_martin(dom, theta=0.0, truncation=1)
    tg = np.linspace(0.0, 1.0, 3)
    reps = 10_000
    pairs = _increment_tables(spec, tg, 3, reps)[:, 0]
    corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
    assert abs(corr) <= 3e-2


def test_increments_deterministic_per_key(dom):
    spec = make_cameron_martin(dom, theta=0.3, truncation=5)
    tg = np.linspace(0.0, 1.0, 17)
    a = sample_wiener_increments(spec, tg, seed=11, replica=2)
    b = sample_wiener_increments(spec, tg, seed=11, replica=2)
    c = sample_wiener_increments(spec, tg, seed=11, replica=3)
    d_ = sample_wiener_increments(spec, tg, seed=12, replica=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d_)


@settings(max_examples=40, deadline=None)
@given(cuts=st.lists(st.integers(1, 299), max_size=6, unique=True),
       first=st.integers(0, 5), count=st.integers(1, 3))
def test_chunked_fills_join_to_the_whole_table(cuts, first, count):
    spec = make_cameron_martin(SpectralDomain(1, 15, 4), theta=0.5,
                               truncation=4)
    tg = np.linspace(0.0, 0.7, 301)
    replicas = range(first, first + count)
    streams = noise._WienerStreams(spec, tg, 29, replicas)
    bounds = [0, *sorted(cuts), 300]
    buffer = np.empty((count, 4, 300))  # filled through strided views
    parts = []
    for a, b in zip(bounds, bounds[1:]):
        streams.fill(buffer[:, :, : b - a])
        parts.append(buffer[:, :, : b - a].copy())
    want = np.stack([sample_wiener_increments(spec, tg, 29, r)
                     for r in replicas])
    assert np.array_equal(np.concatenate(parts, axis=2), want)


def test_nonuniform_grid_rejected(dom):
    spec = make_cameron_martin(dom, theta=0.0, truncation=2)
    with pytest.raises(ValueError, match="uniform"):
        sample_wiener_increments(spec, np.array([0.0, 0.1, 0.3]), seed=0, replica=0)


@pytest.mark.parametrize("seed, key", [(0, ()), (7, (3,)), (29, (0, 5)),
                                       (2**40, (11, 2))])
def test_philox_helper_is_the_literal_stream(seed, key):
    want = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=key))).standard_normal(50)
    assert np.array_equal(noise._philox(seed, *key).standard_normal(50), want)
    if not key:  # the keyless stream is SeedSequence(seed)'s
        plain = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed))).standard_normal(50)
        assert np.array_equal(plain, want)


@pytest.mark.parametrize("seed", [0, 1, 3000, 2**32 + 7, 2**70 + 3,
                                  2**200 + 5])
def test_philox_keys_are_the_seedsequence_keys(seed):
    # seeds of one to seven 32-bit words (more than the pool holds),
    # replicas of one to three with their word counts interleaved, and
    # every k up to 2048
    replicas = [5, 2**32, 0, 1, 2**32 + 9, 2**64 + 3]
    keys = noise._philox_keys(seed, replicas, 2049)
    assert keys.shape == (6, 2049, 2) and keys.dtype == np.uint64
    want = np.array([[np.random.SeedSequence(
        seed, spawn_key=(replica, k)).generate_state(2, np.uint64)
        for k in range(2049)] for replica in replicas])
    assert np.array_equal(keys, want)


def test_batch_streams_are_the_philox_streams():
    # uneven fills of a batch whose replicas straddle 2**32
    spec = make_cameron_martin(SpectralDomain(1, 15, 6), theta=0.5,
                               truncation=6)
    tg = np.linspace(0.0, 0.7, 101)
    seed, replicas = 2**33 + 5, range(2**32 - 1, 2**32 + 2)
    streams = noise._WienerStreams(spec, tg, seed, replicas)
    parts = []
    for length in (1, 37, 62):
        part = np.empty((3, 6, length))
        streams.fill(part)
        parts.append(part)
    got = np.concatenate(parts, axis=2)
    root = np.sqrt(tg[1] - tg[0])
    for table, replica in zip(got, replicas):
        for k, row in enumerate(table):
            want = noise._philox(seed, replica, k).standard_normal(100) * root
            assert np.array_equal(row, want)


def test_a_wrong_key_is_refused_before_any_draw(monkeypatch):
    keys = noise._philox_keys

    def wrong(seed, replicas, count):
        out = keys(seed, replicas, count)
        out[0, -1, 1] ^= np.uint64(1)
        return out

    def no_generators():
        raise AssertionError("a generator was built")

    spec = make_cameron_martin(SpectralDomain(1, 15, 4), theta=0.5,
                               truncation=4)
    tg = np.linspace(0.0, 1.0, 9)
    monkeypatch.setattr(noise, "_philox_keys", wrong)
    monkeypatch.setattr(noise, "_key_type", no_generators)
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__}'s"):
        noise._WienerStreams(spec, tg, 3, range(2, 4))
    with pytest.raises(RuntimeError, match="SeedSequence"):
        sample_wiener_increments(spec, tg, seed=3, replica=0)


def test_key_seed_answers_only_the_philox_request():
    key = noise._philox_keys(5, [1], 1)[0, 0]
    seed = noise._key_type()(key)
    assert seed.generate_state(2, np.uint64) is key
    for n_words, dtype in ((4, np.uint32), (2, np.uint32), (3, np.uint64)):
        with pytest.raises(ValueError, match="two uint64 words"):
            seed.generate_state(n_words, dtype)


# ---------------------------------------------------------------------------
# Cameron-Martin scale and the structure map
# ---------------------------------------------------------------------------

def test_parseval_at_theta_zero(dom):
    spec = make_cameron_martin(dom, theta=0.0, truncation=16)
    rng = np.random.default_rng(0)
    y = rng.normal(size=16)
    vals = y @ spec.synthesis
    l2 = np.sqrt(dom.weight * np.sum(vals**2))
    assert abs(l2 - np.linalg.norm(y)) < 1e-8


def test_embedding_norm_nonincreasing_in_theta(dom):
    rng = np.random.default_rng(1)
    y = rng.normal(size=12)
    norms = []
    for theta in (0.0, 0.2, 0.4, 0.8):
        spec = make_cameron_martin(dom, theta=theta, truncation=12)
        vals = y @ spec.synthesis
        norms.append(np.sqrt(dom.weight * np.sum(vals**2)))
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_weights_formula(dom):
    spec = make_cameron_martin(dom, theta=0.5, truncation=3)
    lam = np.pi**2 * np.arange(1, 4) ** 2
    assert np.allclose(spec.lap_eigenvalues, lam, rtol=1e-13)
    assert np.allclose(spec.weights, (1 + lam) ** (-0.25), rtol=1e-13)


def test_synthesis_of_a_basis_vector_is_its_mode(dom):
    spec = make_cameron_martin(dom, theta=0.0, truncation=8)
    e3 = np.zeros(8)
    e3[2] = 1.0
    vals = e3 @ spec.synthesis
    assert np.allclose(vals, spec.basis_functions[2], atol=1e-14)


def test_g_preset_time_dependence(dom):
    G = g_preset("separable:sin", m=8, q=16)
    assert G.time_dependent
    v0 = G.values_at(dom, 0, 0.0)
    v1 = G.values_at(dom, 1, 0.25)
    assert not np.allclose(v0, v1)
    const = g_preset("const", m=8, q=16)
    assert not const.time_dependent
    assert np.allclose(const.values_at(dom, 0, 0.0), 1.0)


def test_g_table_lookup(dom):
    table = np.vstack([np.full(dom.n_points, 1.0), np.full(dom.n_points, 2.0)])
    G = GProcess.from_table(table, m=8, q=16)
    assert np.allclose(G.values_at(dom, 0, 0.0), 1.0)
    assert np.allclose(G.values_at(dom, 1, 0.5), 2.0)
    # past the table end the last row holds (time-constant tail)
    assert np.allclose(G.values_at(dom, 9, 0.9), 2.0)


@pytest.mark.parametrize("drift_dom, truncation", [
    (SpectralDomain(1, 63, 32), 32), (SpectralDomain(2, 15, 4), 14),
])
def test_noise_basis_is_the_drift_leading_modes(drift_dom, truncation):
    system = build_laplacian_system(drift_dom)
    spec = make_cameron_martin(drift_dom, theta=0.5, truncation=truncation)
    assert spec.basis_functions.tobytes() == \
        system.modes[:truncation].tobytes()
    assert spec.lap_eigenvalues.tobytes() == \
        system.eigenvalues[:truncation].tobytes()


def test_truncation_beyond_grid_rejected():
    with pytest.raises(ValueError, match="truncation"):
        make_cameron_martin(SpectralDomain(1, 8, 8), theta=0.0, truncation=9)


# ---------------------------------------------------------------------------
# hypothesis bookkeeping
# ---------------------------------------------------------------------------

def test_validate_worked_example(dom):
    spec = make_cameron_martin(dom, theta=0.4, truncation=8)
    G = g_preset("bump", m=8, q=16)
    rep = validate_noise_hypotheses(G, spec, p=4.0, d=1)
    assert rep["ok"]
    # theta window (0.1875, 0.5) contains 0.4
    window = [c for c in rep["clauses"] if c["name"].startswith("theta")][0]
    assert window["ok"]
    assert "0.1875" in window["detail"]
    # p=4 is inconsistent with the implied p = 1/(1/2 - 0.4 + 1/8) = 4.444...
    assert rep["warnings"]
    assert rep["derived"]["implied_p"] == pytest.approx(1.0 / 0.225, rel=1e-12)


def test_validate_m_too_small(dom):
    spec = make_cameron_martin(dom, theta=0.4, truncation=8)
    G = GProcess.multiplication(1.0, m=2, q=16)
    rep = validate_noise_hypotheses(G, spec, p=2.0, d=1)
    assert not rep["ok"]
    assert not rep["clauses"][0]["ok"]


def test_validate_p_equal_m_endpoint(dom):
    spec = make_cameron_martin(dom, theta=0.4, truncation=8)
    G = GProcess.multiplication(1.0, m=8, q=16)
    rep = validate_noise_hypotheses(G, spec, p=8.0, d=1)
    assert [c for c in rep["clauses"] if "p in" in c["name"]][0]["ok"]


def test_validate_embedding_exponent(dom):
    spec = make_cameron_martin(dom, theta=0.4, truncation=8)
    G = g_preset("const", m=8, q=16)
    rep = validate_noise_hypotheses(G, spec, p=4.0, d=1)
    # 1/r = 1/2 - theta/d = 0.1
    assert rep["derived"]["embedding_r"] == pytest.approx(10.0, rel=1e-12)
