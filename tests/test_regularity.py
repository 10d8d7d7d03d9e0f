"""Region arithmetic against hand-worked rationals, estimator calibration
against injected paths of known roughness, and region verification."""
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hspde.convolve import RecordSpec, SimulationPlan, TrajectoryEnsemble, simulate
from hspde.noise import GProcess, make_cameron_martin, sample_wiener_increments
from hspde.regularity import (
    RegularityQuery,
    admissible,
    estimate_spatial_exponent,
    estimate_temporal_exponent,
    exponent_budget,
    gamma_ceiling,
    region_boundary,
    select_sigma_delta,
    verify_region,
)
from hspde.regularity import _increment_profiles, _line_aligned, _max_increments
from hspde.spectral import SpectralDomain, build_laplacian_system

P32 = RegularityQuery("prop32", d=1, q=8, p=4)
COLORED = RegularityQuery("colored", d=1, q=16, theta=0.4, m=8)


def inject(values, t_end=1.0, provenance=None):
    """Wrap raw (replica, time, space) values as a d=1 ensemble."""
    values = np.asarray(values, dtype=float)
    reps, n_t, n_s = values.shape
    return TrajectoryEnsemble(
        values=values,
        time_grid=np.linspace(0.0, t_end, n_t),
        space_points=np.linspace(0.0, 1.0, n_s).reshape(-1, 1),
        space_indices=np.arange(n_s),
        space_shape=(n_s,),
        space_weight=1.0 / n_s,
        provenance=provenance or {"scheme": "injected", "dimension": 1},
    )


# ----- exact region arithmetic -------------------------------------------------


def test_prop32_budget_is_exact_rational():
    budget = exponent_budget(P32)
    assert isinstance(budget, Fraction)
    assert budget == Fraction(1, 8)


def test_prop32_boundary_endpoints():
    rows = region_boundary(P32)
    assert rows.shape == (33, 2)
    assert rows[0, 0] == 0.0 and rows[0, 1] == 0.25
    assert rows[-1, 0] == 0.125 and rows[-1, 1] == 0.0
    # budget line: gamma strictly decreasing in beta
    assert np.all(np.diff(rows[:, 1]) < 0)


def test_worked_admissibility_pairs():
    assert admissible(P32, 0.05, 0.1)
    assert not admissible(P32, 0.1, 0.2)


def test_boundary_points_stay_inadmissible():
    assert not admissible(P32, 0, Fraction(1, 4))
    assert not admissible(P32, Fraction(1, 8), 0)
    assert not admissible(P32, -0.01, 0.1)
    assert not admissible(P32, 0.01, -0.1)


def test_empty_region_is_explicit_not_an_error():
    query = RegularityQuery("prop32", d=2, q=4, p=4)
    assert exponent_budget(query) < 0
    assert region_boundary(query).shape == (0, 2)
    assert not admissible(query, 0, 0)


def test_colored_budget_and_ceiling():
    assert exponent_budget(COLORED) == Fraction(17, 80)
    assert float(exponent_budget(COLORED)) == 0.2125
    assert gamma_ceiling(COLORED, 0) == Fraction(17, 40)
    assert float(gamma_ceiling(COLORED, 0)) == 0.425


def test_remark33_budget():
    query = RegularityQuery("remark33", d=1, q=8, theta=0.4)
    assert exponent_budget(query) == Fraction(13, 40)


def test_selection_worked_example():
    sel = select_sigma_delta(P32, Fraction(1, 20), Fraction(1, 10))
    assert sel.sigma_interval == (Fraction(1, 8), Fraction(3, 20))
    assert sel.sigma == Fraction(11, 80)
    assert float(sel.sigma) == 0.1375
    assert sel.delta_interval == (Fraction(7, 40), Fraction(3, 16))
    assert sel.delta == Fraction(29, 160)
    assert float(sel.delta) == 0.18125


def test_selection_worked_fractional_interval():
    query = RegularityQuery("fractional", d=1, q=16, p=8, alpha=1)
    sel = select_sigma_delta(query, Fraction(1, 50), Fraction(1, 20))
    assert sel.sigma_interval == (Fraction(1, 8), Fraction(97, 400))
    assert float(sel.sigma_interval[1]) == 0.2425
    assert sel.delta_interval == (Fraction(7, 40), Fraction(187, 800))
    assert sel.delta == Fraction(327, 1600)


def test_selection_requires_admissible_pair():
    with pytest.raises(ValueError, match="admissible"):
        select_sigma_delta(P32, 0.1, 0.2)


def test_selection_not_defined_for_remark33():
    query = RegularityQuery("remark33", d=1, q=8, theta=0.4)
    with pytest.raises(ValueError, match="prop32"):
        select_sigma_delta(query, 0.05, 0.05)


def test_selection_budget_invariant_on_sweep():
    queries = [
        P32,
        COLORED,
        RegularityQuery("fractional", d=1, q=16, p=8, alpha=1.5),
        RegularityQuery("prop32", d=2, q=12, p=6),
    ]
    checked = 0
    for query in queries:
        budget = exponent_budget(query)
        if budget <= 0:
            continue
        q = Fraction(str(float(query.q)))
        for i in range(5):
            beta = budget * i / 6
            ceil = gamma_ceiling(query, beta)
            for j in range(5):
                gamma = ceil * j / 6
                assert admissible(query, beta, gamma)
                sel = select_sigma_delta(query, beta, gamma)
                assert sel.beta + sel.delta + sel.sigma + 1 / q < Fraction(1, 2)
                lo, hi = sel.sigma_interval
                assert lo < sel.sigma < hi
                lo, hi = sel.delta_interval
                assert lo < sel.delta < hi
                checked += 1
    assert checked >= 75


def test_alpha_two_coincides_with_prop32():
    frac2 = RegularityQuery("fractional", d=1, q=8, p=4, alpha=2)
    assert exponent_budget(frac2) == exponent_budget(P32)
    grid = np.linspace(0.0, 0.3, 20)
    for beta in grid:
        for gamma in grid:
            assert admissible(frac2, beta, gamma) == admissible(P32, beta, gamma)


def test_region_nesting_under_parameter_growth():
    pairs = [
        (P32, RegularityQuery("prop32", d=1, q=8, p=8)),            # p up
        (P32, RegularityQuery("prop32", d=1, q=16, p=4)),           # q up
        (RegularityQuery("colored", d=1, q=16, theta=0.2, m=8), COLORED),  # theta up
        (
            RegularityQuery("fractional", d=1, q=16, p=8, alpha=1),
            RegularityQuery("fractional", d=1, q=16, p=8, alpha=1.5),
        ),
        (
            RegularityQuery("fractional", d=1, q=16, p=8, alpha=1.5),
            RegularityQuery("fractional", d=1, q=16, p=8, alpha=2),
        ),
    ]
    grid = np.linspace(0.0, 0.5, 21)
    for small, large in pairs:
        assert exponent_budget(small) <= exponent_budget(large)
        for beta in grid:
            for gamma in grid:
                if admissible(small, beta, gamma):
                    assert admissible(large, beta, gamma)


def test_query_validation():
    with pytest.raises(ValueError, match="theorem"):
        RegularityQuery("thm99", d=1, q=8, p=4)
    with pytest.raises(ValueError, match="positive"):
        RegularityQuery("prop32", d=0, q=8, p=4)
    with pytest.raises(ValueError, match="q must"):
        RegularityQuery("prop32", d=1, q=1, p=4)
    with pytest.raises(ValueError, match="needs p"):
        RegularityQuery("prop32", d=1, q=8)
    with pytest.raises(ValueError, match="p must exceed"):
        RegularityQuery("prop32", d=1, q=8, p=2)
    with pytest.raises(ValueError, match="p must exceed"):
        RegularityQuery("fractional", d=3, q=8, p=3)
    with pytest.raises(ValueError, match="alpha"):
        RegularityQuery("fractional", d=1, q=8, p=4, alpha=2.5)
    with pytest.raises(ValueError, match="alpha"):
        RegularityQuery("fractional", d=1, q=8, p=4, alpha=0)
    with pytest.raises(ValueError, match="needs theta"):
        RegularityQuery("remark33", d=1, q=8)
    with pytest.raises(ValueError, match="nonnegative"):
        RegularityQuery("colored", d=1, q=8, theta=-0.1, m=8)
    with pytest.raises(ValueError, match="needs m"):
        RegularityQuery("colored", d=1, q=8, theta=0.4)
    with pytest.raises(ValueError, match="m must exceed"):
        RegularityQuery("colored", d=1, q=8, theta=0.4, m=2)
    # a parameter the theorem's region never reads is refused by name
    for theorem, params, key in (
            ("prop32", {"p": 4, "theta": 0.3}, "theta"),
            ("prop32", {"p": 4, "m": 5}, "m"),
            ("prop32", {"p": 4, "alpha": 1}, "alpha"),
            ("fractional", {"p": 4, "theta": 0.3}, "theta"),
            ("fractional", {"p": 4, "m": 5}, "m"),
            ("remark33", {"theta": 0.4, "p": 4}, "p"),
            ("remark33", {"theta": 0.4, "m": 5}, "m"),
            ("remark33", {"theta": 0.4, "alpha": 1.5}, "alpha"),
            ("colored", {"theta": 0.4, "m": 8, "p": 4}, "p"),
            ("colored", {"theta": 0.4, "m": 8, "alpha": 1}, "alpha")):
        with pytest.raises(ValueError, match=f"^{theorem} reads no {key};"):
            RegularityQuery(theorem, d=1, q=8, **params)
    # alpha = 2 is every other theorem's own slope, so it is no extra key
    assert exponent_budget(RegularityQuery("prop32", d=1, q=8, p=4,
                                           alpha=2.0)) == exponent_budget(P32)


# ----- region properties over random rational queries --------------------------


def rationals(lo, hi):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=64)


@st.composite
def queries(draw):
    """Valid queries of all four theorems with rational parameters."""
    theorem = draw(st.sampled_from(["prop32", "remark33", "colored", "fractional"]))
    d = draw(st.integers(1, 3))
    params = {}
    if theorem in ("prop32", "fractional"):
        params["p"] = max(2, d) + draw(rationals(Fraction(1, 64), 64))
    if theorem == "fractional":
        params["alpha"] = draw(rationals(Fraction(1, 64), 2))
    if theorem in ("remark33", "colored"):
        params["theta"] = draw(rationals(0, 4))
    if theorem == "colored":
        params["m"] = 2 + draw(rationals(Fraction(1, 64), 64))
    return RegularityQuery(theorem, d=d, q=draw(rationals(2, 64)), **params)


@st.composite
def interior_points(draw):
    """A query with a nonempty region and a point 0 <= g < ceiling on it."""
    query = draw(queries())
    budget = exponent_budget(query)
    assume(budget > 0)
    beta = budget * draw(rationals(0, Fraction(63, 64)))
    gamma = gamma_ceiling(query, beta) * draw(rationals(0, Fraction(63, 64)))
    return query, beta, gamma


PROPERTY = settings(max_examples=150, deadline=None)


@PROPERTY
@given(queries(), rationals(0, 2))
def test_region_boundary_never_admissible(query, beta):
    assert not admissible(query, beta, gamma_ceiling(query, beta))


@PROPERTY
@given(interior_points())
def test_points_below_the_ceiling_are_admissible(point):
    query, beta, gamma = point
    assert 0 <= gamma < gamma_ceiling(query, beta)
    assert admissible(query, beta, gamma)


def _closed_form_budget(query):
    """The four per-theorem budgets of the module docstring, written out."""
    d, q, half = query.d, Fraction(query.q), Fraction(1, 2)
    if query.theorem == "prop32":
        return half - 1 / q - d / Fraction(query.p)
    if query.theorem == "remark33":
        return half * (1 + Fraction(query.theta)) - 1 / q - Fraction(d, 4)
    if query.theorem == "colored":
        return (Fraction(query.theta) + half
                - d * (half + 1 / Fraction(query.m)) - 1 / q)
    return half - 1 / q - 2 * d / (Fraction(query.alpha) * Fraction(query.p))


@PROPERTY
@given(queries())
def test_budget_is_each_closed_form(query):
    assert exponent_budget(query) == _closed_form_budget(query)


@PROPERTY
@given(interior_points())
def test_selection_keeps_the_budget(point):
    query, beta, gamma = point
    if query.theorem == "remark33":
        with pytest.raises(ValueError, match="defined for"):
            select_sigma_delta(query, beta, gamma)
        return
    if query.theorem == "colored" and \
            Fraction(1, 2) - query.theta / query.d + 1 / query.m <= 0:
        with pytest.raises(ValueError, match="theta too large"):
            select_sigma_delta(query, beta, gamma)
        return
    sel = select_sigma_delta(query, beta, gamma)
    assert sel.sigma_interval[0] < sel.sigma < sel.sigma_interval[1]
    assert sel.delta_interval[0] < sel.delta < sel.delta_interval[1]
    assert beta + sel.delta + sel.sigma + 1 / Fraction(query.q) < Fraction(1, 2)


# ----- exponent estimators ------------------------------------------------------


def test_linear_path_is_lipschitz():
    t = np.linspace(0.0, 1.0, 129)
    f = 1.0 + 0.5 * np.sin(np.pi * np.linspace(0.0, 1.0, 65))
    ens = inject(np.tile(t[None, :, None] * f[None, None, :], (3, 1, 1)))
    for mode in ("pointwise", "sup-space"):
        est = estimate_temporal_exponent(ens, mode=mode)
        assert abs(est.beta_hat - 1.0) <= 0.02
        assert est.fit_r2 > 0.999


def test_sqrt_path_with_anchored_lags():
    t = np.linspace(0.0, 1.0, 129)
    ens = inject(np.sqrt(t)[None, :, None].repeat(2, axis=0))
    est = estimate_temporal_exponent(ens, mode="pointwise", point_index=0)
    # max increment at lag h anchors at t=0 and equals sqrt(h) exactly
    assert 0.45 <= est.beta_hat <= 0.55


def test_brownian_paths_recover_half():
    rng = np.random.default_rng(42)
    reps, n, n_s = 32, 1 << 14, 64
    incs = rng.standard_normal((reps, n, n_s)) * np.sqrt(1.0 / n)
    vals = np.empty((reps, n + 1, n_s))
    vals[:, 0] = 0.0
    np.cumsum(incs, axis=1, out=vals[:, 1:])
    del incs
    ens = inject(vals)
    est = estimate_temporal_exponent(ens, mode="sup-space")
    assert 0.40 <= est.beta_hat <= 0.55
    est_pw = estimate_temporal_exponent(ens, mode="pointwise")
    assert 0.40 <= est_pw.beta_hat <= 0.55


def test_smooth_profile_saturates():
    x = np.linspace(0.0, 1.0, 257)
    profile = np.sin(np.pi * x)
    ens = inject(np.tile(profile[None, None, :], (2, 4, 1)))
    est = estimate_spatial_exponent(ens, times=np.arange(4))
    assert est.gamma_hat >= 0.95


def test_bridge_profiles_recover_half():
    rng = np.random.default_rng(7)
    n_s, n_t, reps = 513, 32, 32
    x = np.linspace(0.0, 1.0, n_s)
    vals = np.empty((reps, n_t, n_s))
    for r in range(reps):
        w = np.cumsum(rng.standard_normal((n_t, n_s - 1)) / np.sqrt(n_s - 1), axis=1)
        w = np.concatenate([np.zeros((n_t, 1)), w], axis=1)
        vals[r] = w - x[None, :] * w[:, -1:]
    est = estimate_spatial_exponent(inject(vals), times=np.arange(n_t))
    assert 0.40 <= est.gamma_hat <= 0.55


def test_estimates_invariant_under_scaling():
    rng = np.random.default_rng(5)
    incs = rng.standard_normal((4, 2048, 48)) / np.sqrt(2048.0)
    vals = np.concatenate(
        [np.zeros((4, 1, 48)), np.cumsum(incs, axis=1)], axis=1
    )
    base_t = estimate_temporal_exponent(inject(vals), mode="sup-space")
    base_s = estimate_spatial_exponent(inject(vals))
    for c in (1e3, 1e-3):
        scaled_t = estimate_temporal_exponent(inject(c * vals), mode="sup-space")
        scaled_s = estimate_spatial_exponent(inject(c * vals))
        assert np.isclose(scaled_t.beta_hat, base_t.beta_hat, atol=1e-9)
        assert np.isclose(scaled_s.gamma_hat, base_s.gamma_hat, atol=1e-9)


def test_max_increments_match_fresh_differences():
    # the column slabs must give the per-lag expression's bits, also for
    # series wider than one slab (300 rows take 218 columns a slab, so 500
    # columns take 3 slabs, the last partial and holding a NaN), with
    # several trailing axes, and taller than 8192 rows, whose slabs are 8
    # columns wide and the last partial
    rng = np.random.default_rng(5)
    lags = [1, 2, 4, 8, 16, 32]
    nan_wide = rng.standard_normal((70, 150))
    nan_wide[40, 140] = np.nan
    nan_slabs = rng.standard_normal((300, 500))
    nan_slabs[150, 470] = np.nan
    for series in (rng.standard_normal(257), rng.standard_normal((300, 7)),
                   rng.standard_normal((7, 300)).T,
                   rng.standard_normal((300, 9))[:, 4],
                   rng.standard_normal((300, 150)),
                   rng.standard_normal((300, 200))[:, ::3],
                   rng.standard_normal((70, 9, 11)), nan_wide, nan_slabs,
                   rng.standard_normal((8300, 21))):
        want = [np.abs(series[lag:] - series[:-lag]).max() for lag in lags]
        assert np.array_equal(_max_increments(series, lags), want,
                              equal_nan=True)


def test_scratch_arrays_start_on_a_cache_line():
    for dtype in (np.float64, np.float32, np.complex128):
        for shape in ((300, 64), (1, 3)):
            scratch = _line_aligned(shape, dtype)
            assert scratch.shape == shape and scratch.dtype == dtype
            assert scratch.ctypes.data % 64 == 0


def test_degenerate_paths_excluded_with_warning():
    rng = np.random.default_rng(9)
    vals = np.zeros((2, 129, 1))
    vals[0, 1:, 0] = np.cumsum(rng.standard_normal(128)) / np.sqrt(128.0)
    with pytest.warns(RuntimeWarning, match="degenerate"):
        est = estimate_temporal_exponent(inject(vals), mode="pointwise",
                                         point_index=0)
    assert np.isnan(est.per_replica[1])
    assert np.isfinite(est.beta_hat)


def test_all_degenerate_is_an_error():
    vals = np.zeros((2, 129, 1))
    with pytest.warns(RuntimeWarning):
        with pytest.raises(ValueError, match="degenerate"):
            estimate_temporal_exponent(inject(vals), mode="pointwise",
                                       point_index=0)


def jittered(grid, rel):
    """``grid`` with one interior point moved by ``rel`` of its step."""
    grid = grid.copy()
    grid[len(grid) // 2] += rel * (grid[1] - grid[0])
    return grid


@pytest.mark.parametrize("grid, ok", [
    *((np.linspace(0.0, t_end, n), True)
      for n, t_end in ((129, 1.0), (1001, 0.3), (8193, 1.0), (10_001, 3.0))),
    (jittered(np.linspace(0.0, 1.0, 129), 2e-10), True),  # within 1e-9
    (jittered(np.linspace(0.0, 1.0, 129), 5e-9), False),
    (np.linspace(1.0, 0.0, 129), False),  # descending
    (np.linspace(0.0, 0.0, 129), False),  # standing still
])
def test_one_uniform_grid_rule_for_sampling_and_fits(grid, ok):
    # the noise sampler and the temporal fit read a time grid by one rule:
    # strictly increasing, every gap within 1e-9 of the first
    spec = make_cameron_martin(SpectralDomain(1, 15, 4), theta=0.0,
                               truncation=2)
    ens = inject(np.random.default_rng(0).standard_normal((2, len(grid), 5)))
    ens.time_grid = grid
    calls = (lambda: sample_wiener_increments(spec, grid, seed=0, replica=0),
             lambda: estimate_temporal_exponent(ens))
    for call in calls:
        if ok:
            call()
        else:
            with pytest.raises(ValueError, match="strictly increasing and "
                                                 "uniform"):
                call()


def test_estimator_preconditions():
    short = inject(np.random.default_rng(0).standard_normal((2, 32, 40)))
    with pytest.raises(ValueError, match="64"):
        estimate_temporal_exponent(short)
    narrow = inject(np.random.default_rng(0).standard_normal((2, 129, 17)))
    with pytest.raises(ValueError, match="33"):
        estimate_spatial_exponent(narrow)
    with pytest.raises(ValueError, match="mode"):
        estimate_temporal_exponent(short, mode="everywhere")
    warped = inject(np.random.default_rng(0).standard_normal((2, 129, 40)))
    warped.time_grid = warped.time_grid**2
    with pytest.raises(ValueError, match="uniform"):
        estimate_temporal_exponent(warped)
    bent = inject(np.random.default_rng(0).standard_normal((2, 4, 65)))
    bent.space_points = (bent.space_points**2).reshape(-1, 1)
    with pytest.raises(ValueError, match="uniform"):
        estimate_spatial_exponent(bent)
    # numpy would wrap a negative index and fail late on a large one
    wide = inject(np.random.default_rng(0).standard_normal((2, 129, 65)))
    for index in (-1, 65):
        with pytest.raises(ValueError, match=rf"point_index \[{index}\]"):
            estimate_temporal_exponent(wide, point_index=index)
    for times in ([-2, 100], [128, 129]):
        with pytest.raises(ValueError, match=r"times \[(-2|129)\]"):
            estimate_spatial_exponent(wide, times=times)
    # a time is checked as given: a cast would fit times 100 and 120
    for times in ([100.9, 120.2], np.array([100.0, 120.0])):
        with pytest.raises(ValueError, match=r"times \[100\.\d, 120\.\d\]: "
                                             r"not an index into \[0, 129\)"):
            estimate_spatial_exponent(wide, times=times)
    for times in (np.array([100, 120]), np.int64(5), (100,)):
        estimate_spatial_exponent(wide, times=times)
    # the sup-space fit reads every point, so it refuses to be given one
    with pytest.raises(ValueError, match="sup-space reads no point_index; "
                                         "drop it"):
        estimate_temporal_exponent(wide, mode="sup-space", point_index=64)
    estimate_temporal_exponent(wide, point_index=64)
    estimate_spatial_exponent(wide, times=[0, 128])
    # a selection of no time is refused by name, not by a slab of width 0,
    # and one of zero sections alone, as at a simulated ensemble's time 0
    # where u(0) = 0, before any fit warns of degenerate paths
    still = inject(wide.values.copy())
    still.values[:, 0] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for times in ([], np.arange(0), 0, -1, 2.5):
            with pytest.raises(ValueError, match="times .*selects no time"):
                estimate_spatial_exponent(wide, times=times)
        for times in ([0], (0, 0)):
            with pytest.raises(ValueError, match=r"times \[0(, 0)?\]: every "
                                                 "selected section is zero"):
                estimate_spatial_exponent(still, times=times)
    # a caller's ensemble may hold data at index 0
    assert np.isfinite(estimate_spatial_exponent(wide, times=[0]).value)
    estimate_spatial_exponent(still, times=[0, 128])
    estimate_spatial_exponent(wide, times=1)


def test_estimate_metadata_fields():
    t = np.linspace(0.0, 2.0, 129)
    ens = inject(np.tile(t[None, :, None], (3, 1, 40)), t_end=2.0)
    est = estimate_temporal_exponent(ens, mode="pointwise")
    dt = 2.0 / 128
    # 129 samples: dyadic lags 1..128, trimmed to 4..32
    assert np.allclose(est.lag_range, (4 * dt, 32 * dt))
    assert 0.0 <= est.fit_r2 <= 1.0
    assert est.kind == "temporal"
    assert est.per_replica.shape == (3,)
    assert est.value == est.beta_hat
    x = estimate_spatial_exponent(inject(np.tile(
        np.sin(np.pi * np.linspace(0, 1, 65))[None, None, :], (2, 4, 1))))
    assert x.kind == "spatial"
    assert x.value == x.gamma_hat
    assert x.beta_hat is None


# ----- region verification ------------------------------------------------------


@pytest.fixture(scope="module")
def small_heat_ensemble():
    dom = SpectralDomain(1, 64, 64)
    plan = SimulationPlan(
        system=build_laplacian_system(dom),
        noise=make_cameron_martin(dom, 0.0, 64),
        G=GProcess.identity(),
        seed=777,
        steps=1 << 11,
        replicas=12,
        record=RecordSpec(time_stride=1, space_count=64),
    )
    return simulate(plan)


def same_estimate(a, b):
    return (a.value == b.value and a.fit_r2 == b.fit_r2
            and a.lag_range == b.lag_range
            and a.per_replica.tobytes() == b.per_replica.tobytes())


def test_fits_independent_of_worker_count(small_heat_ensemble):
    # a max is exact, so mapping replicas on threads moves no bit
    ens = small_heat_ensemble
    times = np.arange(ens.values.shape[1] // 2, ens.values.shape[1], 64)
    for axis, where in (("time", {"point_index": 5}), ("time", {}),
                        ("space", {"times": times})):
        lags, one = _increment_profiles(ens, axis, workers=1, **where)
        lags2, two = _increment_profiles(ens, axis, workers=2, **where)
        assert one.shape == (ens.replicas, len(lags))
        assert lags.tobytes() == lags2.tobytes()
        assert one.tobytes() == two.tobytes()
    for mode in ("pointwise", "sup-space"):
        assert same_estimate(
            estimate_temporal_exponent(ens, mode=mode, workers=1),
            estimate_temporal_exponent(ens, mode=mode, workers=2))
    assert same_estimate(estimate_spatial_exponent(ens, workers=1),
                         estimate_spatial_exponent(ens, workers=2))


def test_verify_passes_inside_calibrated_region(small_heat_ensemble):
    verdict = verify_region(small_heat_ensemble, P32)
    assert verdict.passed and not verdict.vacuous
    assert verdict.vertices.shape == (25, 2)
    assert verdict.margins.shape == (25, 2)
    assert verdict.failures.size == 0
    assert np.all(verdict.margins >= 0)
    assert 0.0 <= verdict.diagnostics["beta_fit_r2"] <= 1.0


def test_verify_fails_on_inflated_budget(small_heat_ensemble):
    greedy = RegularityQuery("prop32", d=1, q=400, p=400)
    verdict = verify_region(small_heat_ensemble, greedy)
    assert not verdict.passed
    assert verdict.failures.size > 0
    assert (verdict.margins[verdict.failures] < 0).any(axis=1).all()


def test_verify_vacuous_on_empty_region():
    vals = np.random.default_rng(3).standard_normal((2, 65, 40))
    ens = inject(vals, provenance={"scheme": "injected", "dimension": 2})
    verdict = verify_region(ens, RegularityQuery("prop32", d=2, q=4, p=4))
    assert verdict.passed and verdict.vacuous
    assert "empty region" in verdict.note
    assert verdict.beta_hat is None and verdict.gamma_hat is None


def test_verify_checks_structural_provenance(small_heat_ensemble):
    with pytest.raises(ValueError, match="dimensional"):
        verify_region(small_heat_ensemble,
                      RegularityQuery("prop32", d=2, q=12, p=6))
    with pytest.raises(ValueError, match="alpha"):
        verify_region(small_heat_ensemble,
                      RegularityQuery("fractional", d=1, q=8, p=4, alpha=1.5))
    # matching drift exponent goes through
    ok = verify_region(small_heat_ensemble,
                       RegularityQuery("fractional", d=1, q=8, p=4, alpha=2))
    assert ok.passed


def test_verify_region_ignores_noise_theta(small_heat_ensemble):
    # ensemble was driven with theta=0; the colored query claims 0.4, the
    # theory side being confronted
    verdict = verify_region(small_heat_ensemble, COLORED)
    assert verdict.vacuous is False


def test_verdict_serialises_to_json(small_heat_ensemble):
    verdict = verify_region(small_heat_ensemble, P32)
    payload = json.loads(json.dumps(verdict.as_dict()))
    assert payload["passed"] is True
    assert len(payload["vertices"]) == 25
    assert len(payload["margins"]) == 25
    assert payload["tolerance"] == 0.10
