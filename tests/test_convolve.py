"""Stochastic convolution scheme tests.

Oracles: the closed-form Ornstein-Uhlenbeck variance
(1 - e^(-2 mu t)) / (2 mu), an independent Euler-Maruyama integrator
written here, and exact structural identities (linearity in the gain,
semigroup decay once the noise switches off, adaptedness to the
increment stream).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hspde.spectral import (
    SpectralDomain,
    EllipticOperatorSpec,
    build_laplacian_system,
    build_variable_coefficient_system,
    diagonal_system,
)
from hspde.noise import GProcess, make_cameron_martin, g_preset
from hspde.presets import operator_preset
from hspde import convolve, spectral
from hspde.convolve import (
    RecordSpec,
    SimulationPlan,
    simulate,
    simulate_from_increments,
    predicted_second_moment,
)
from hspde.noise import sample_wiener_increments


# ----- independent Euler-Maruyama oracle ------------------------------------


def em_ou_endpoints(mu, T, n_steps, n_paths, seed):
    """dX = -mu X dt + dW integrated by explicit Euler; returns X(T) draws."""
    rng = np.random.default_rng(seed)
    dt = T / n_steps
    x = np.zeros(n_paths)
    for _ in range(n_steps):
        x = x * (1.0 - mu * dt) + np.sqrt(dt) * rng.standard_normal(n_paths)
    return x


def ou_variance(mu, t):
    return (1.0 - np.exp(-2.0 * mu * t)) / (2.0 * mu)


# ----- fixtures --------------------------------------------------------------


def single_mode_plan(replicas, steps=16, seed=1108, alpha=2.0):
    dom = SpectralDomain(1, 64, 1)
    system = build_laplacian_system(dom)
    noise = make_cameron_martin(dom, theta=0.0, truncation=1)
    return SimulationPlan(
        system=system,
        noise=noise,
        G=GProcess.identity(),
        seed=seed,
        alpha=alpha,
        T=1.0,
        steps=steps,
        replicas=replicas,
        record=RecordSpec(time_stride=steps, space_count=64),
    )


def small_plan(g, replicas=4, steps=32, seed=91, theta=0.5, modes=8, grid=32,
               stride=None, space=None):
    dom = SpectralDomain(1, grid, modes)
    system = build_laplacian_system(dom)
    noise = make_cameron_martin(dom, theta=theta, truncation=modes)
    return SimulationPlan(
        system=system,
        noise=noise,
        G=g,
        seed=seed,
        T=1.0,
        steps=steps,
        replicas=replicas,
        record=RecordSpec(time_stride=stride or 1, space_count=space or grid),
    )


def exact(ens):
    """``ens``, after checking that it was labelled exact in law."""
    assert ens.provenance["scheme"] == "exact-diagonal"
    assert ens.provenance["scheme_reason"] is None
    return ens


def mode_coefficients(ens, system):
    """Project recorded full-grid values back onto the eigenmodes."""
    assert len(ens.space_indices) == system.domain.n_points
    return system.weight * np.einsum(
        "rts,ks->rtk", ens.values, system.modes[:, ens.space_indices]
    )


# ----- law of the solution ---------------------------------------------------


def test_single_mode_variance_matches_ou_formula():
    # exact-in-law sampling: coarse steps must still hit the OU variance
    plan = single_mode_plan(replicas=6000, steps=8)
    ens = exact(simulate(plan))
    mu = np.pi**2
    c_end = mode_coefficients(ens, plan.system)[:, -1, 0]
    var_hat = c_end.var(ddof=1)
    want = ou_variance(mu, 1.0)
    se = want * np.sqrt(2.0 / (len(c_end) - 1))
    assert abs(var_hat - want) < 3 * se


def test_em_oracle_agrees_with_scheme():
    mu = np.pi**2
    plan = single_mode_plan(replicas=4000, steps=8, seed=5)
    ens = exact(simulate(plan))
    c_end = mode_coefficients(ens, plan.system)[:, -1, 0]
    em_end = em_ou_endpoints(mu, 1.0, 5000, 4000, seed=1234)
    v_scheme = c_end.var(ddof=1)
    v_em = em_end.var(ddof=1)
    se = np.hypot(
        v_scheme * np.sqrt(2.0 / 3999), v_em * np.sqrt(2.0 / 3999)
    )
    assert abs(v_scheme - v_em) < 3 * se


def test_covariance_decays_at_semigroup_rate():
    mu = np.pi**2
    plan = single_mode_plan(replicas=8000, steps=16, seed=21)
    plan = SimulationPlan(
        system=plan.system, noise=plan.noise, G=plan.G, seed=plan.seed,
        T=1.0, steps=16, replicas=8000,
        record=RecordSpec(time_stride=1, space_count=64),
    )
    ens = exact(simulate(plan))
    coeffs = mode_coefficients(ens, plan.system)
    x, y = coeffs[:, 8, 0], coeffs[:, 16, 0]  # t = 0.5 and t = 1.0
    prods = x * y
    want = np.exp(-mu * 0.5) * ou_variance(mu, 0.5)
    se = prods.std(ddof=1) / np.sqrt(len(prods))
    assert abs(prods.mean() - want) < 3 * se


def test_fractional_drift_slows_decay():
    # alpha = 1 drift sqrt(lambda): variance follows the OU law with mu = pi
    plan = single_mode_plan(replicas=6000, steps=8, seed=77, alpha=1.0)
    ens = simulate(plan)
    c_end = mode_coefficients(ens, plan.system)[:, -1, 0]
    want = ou_variance(np.pi, 1.0)
    se = want * np.sqrt(2.0 / (len(c_end) - 1))
    assert abs(c_end.var(ddof=1) - want) < 3 * se
    assert want > ou_variance(np.pi**2, 1.0)  # slower decay, more variance


def test_endpoint_values_look_gaussian():
    plan = small_plan(GProcess.identity(), replicas=6000, steps=64,
                      modes=4, grid=16, seed=3)
    ens = simulate(plan)
    sample = ens.values[:, -1, 8]
    z = (sample - sample.mean()) / sample.std(ddof=1)
    n = len(z)
    skew = np.mean(z**3)
    exkurt = np.mean(z**4) - 3.0
    assert abs(skew) < 5 * np.sqrt(6.0 / n)
    assert abs(exkurt) < 5 * np.sqrt(24.0 / n)


# ----- structural identities -------------------------------------------------


def test_zero_multiplier_gives_zero_paths():
    g = GProcess.multiplication(0.0, m=8.0, q=16.0)
    ens = simulate(small_plan(g, replicas=3))
    assert np.all(ens.values == 0.0)


def test_identity_and_unit_multiplier_agree():
    # identity takes the diagonal shortcut, g == 1 the projection path
    plan_id = small_plan(GProcess.identity(), replicas=2, seed=6)
    plan_g1 = small_plan(GProcess.multiplication(1.0, m=8.0, q=16.0),
                         replicas=2, seed=6)
    a = simulate(plan_id)
    b = simulate(plan_g1)
    scale = np.abs(a.values).max()
    assert np.abs(a.values - b.values).max() < 1e-12 * max(scale, 1.0)


def test_constant_one_row_table_matches_unit_multiplier():
    # a one-row table does not vary in time: it takes the scalar's route
    scalar = small_plan(GProcess.multiplication(1.0, m=8.0, q=16.0),
                        replicas=2, seed=6)
    rows = np.ones((1, scalar.system.domain.n_points))
    table = dataclasses.replace(
        scalar, G=GProcess.from_table(rows, m=8.0, q=16.0))
    a, b = simulate(scalar), simulate(table)
    assert b.provenance["route"] == a.provenance["route"] == "dense"
    assert b.provenance["scheme"] == a.provenance["scheme"] == "exact-diagonal"
    assert np.array_equal(a.values, b.values)
    assert predicted_second_moment(table) == predicted_second_moment(scalar)


def test_trajectories_exactly_linear_in_gain():
    g1 = GProcess.multiplication(0.75, m=8.0, q=16.0)
    g2 = GProcess.multiplication(1.5, m=8.0, q=16.0)
    a = simulate(small_plan(g1, replicas=3, seed=17))
    b = simulate(small_plan(g2, replicas=3, seed=17))
    assert np.array_equal(2.0 * a.values, b.values)


LINEAR_STEPS = 24
# away from the subnormals, where scaling by 2^k would round
TABLE_ENTRIES = st.just(0.0) | st.floats(1e-3, 4.0) | st.floats(-4.0, -1e-3)


@settings(max_examples=30, deadline=None)
@given(rows=st.sampled_from([1, LINEAR_STEPS]), k=st.integers(-4, 4),
       data=st.data())
def test_trajectories_exactly_linear_in_g_table(rows, k, data):
    # one row takes the dense route, one row per step the per-step route
    base = small_plan(GProcess.identity(), replicas=2, steps=LINEAR_STEPS,
                      modes=6, grid=16, seed=23)
    tables = arrays(np.float64, (rows, 16), elements=TABLE_ENTRIES)
    a, b = data.draw(tables), data.draw(tables)

    def run(table):
        g = GProcess.from_table(table, m=8.0, q=16.0)
        return simulate(dataclasses.replace(base, G=g), workers=1)

    ens_a = run(a)
    assert ens_a.provenance["route"] == ("dense" if rows == 1 else "per-step")
    assert np.array_equal(run(2.0**k * a).values, 2.0**k * ens_a.values)
    want = ens_a.values + run(b).values
    got = run(a + b).values
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_semigroup_decay_after_noise_stops():
    def gate(t, pts):
        return np.full(len(pts), 1.0 if t < 0.5 else 0.0)

    g = GProcess.multiplication(gate, m=8.0, q=16.0, time_dependent=True)
    plan = small_plan(g, replicas=2, steps=64, modes=6, grid=24)
    ens = simulate(plan)
    assert ens.provenance["scheme"] == "frozen-exponential"
    assert "varies in time" in ens.provenance["scheme_reason"]
    coeffs = mode_coefficients(ens, plan.system)
    lam = np.real(plan.system.eigenvalues)
    c_half = coeffs[:, 32, :]
    for row in (40, 48, 64):
        t_gap = ens.time_grid[row] - ens.time_grid[32]
        want = c_half * np.exp(-lam * t_gap)[None, :]
        assert np.abs(coeffs[:, row, :] - want).max() < 1e-10


def test_splice_preserves_past_values():
    plan = small_plan(GProcess.identity(), replicas=2, steps=32, modes=6,
                      grid=24, seed=40)
    tg = plan.time_grid
    incs = np.stack(
        [sample_wiener_increments(plan.noise, tg, plan.seed, r) for r in range(2)]
    )
    other = np.stack(
        [sample_wiener_increments(plan.noise, tg, 999, r) for r in range(2)]
    )
    spliced = incs.copy()
    spliced[:, :, 20:] = other[:, :, 20:]
    a = simulate_from_increments(plan, incs)
    b = simulate_from_increments(plan, spliced)
    assert np.array_equal(a.values[:, : 20 + 1, :], b.values[:, : 20 + 1, :])
    assert not np.array_equal(a.values[:, 21:, :], b.values[:, 21:, :])


def test_same_plan_reproduces_bitwise():
    plan = small_plan(g_preset("bump", 8.0, 16.0), replicas=3, seed=52)
    a = simulate(plan)
    b = simulate(plan)
    assert np.array_equal(a.values, b.values)
    c = simulate(small_plan(g_preset("bump", 8.0, 16.0), replicas=3, seed=53))
    assert not np.array_equal(a.values, c.values)


def test_auto_scheme_dispatch():
    exact(simulate(small_plan(GProcess.identity(), replicas=1, steps=8)))
    ens_bump = simulate(small_plan(g_preset("bump", 8.0, 16.0), replicas=1, steps=8))
    assert ens_bump.provenance["scheme"] == "frozen-exponential"


def test_exact_scheme_rejects_nondiagonal_g():
    # the exact label is withheld, and the reason recorded, for both entries
    plan = small_plan(g_preset("bump", 8.0, 16.0), replicas=1, steps=8)
    ens = simulate(plan)
    assert ens.provenance["scheme"] == "frozen-exponential"
    reason = "G does not diagonalise over the drift eigenbasis"
    assert ens.provenance["scheme_reason"] == reason
    table = simulate_from_increments(plan, replica_increments(plan))
    assert table.provenance["scheme"] == "from-increments"
    assert table.provenance["scheme_reason"] == reason


def test_exact_label_needs_uncorrelated_mode_noise():
    # the sine noise basis is not the indicator eigenbasis of a diagonal
    # system: under unequal weights (theta > 0) the mode noises correlate,
    # under white noise (theta = 0, full truncation) Phi is orthogonal
    system = diagonal_system([1.0, 4.0, 9.0])

    def plan(theta):
        return SimulationPlan(
            system=system, noise=make_cameron_martin(system.domain, theta, 3),
            G=GProcess.identity(), seed=4, steps=8, replicas=2,
            record=RecordSpec(space_count=3))

    colored = simulate(plan(0.5)).provenance
    assert colored["scheme"] == "frozen-exponential"
    assert colored["route"] == "dense"
    assert "does not diagonalise" in colored["scheme_reason"]
    exact(simulate(plan(0.0)))


# ----- predicted second moment ----------------------------------------------


def test_predicted_second_moment_matches_closed_form():
    plan = small_plan(GProcess.identity(), replicas=1, steps=16, theta=0.3,
                      modes=5, grid=20)
    lam = plan.system.eigenvalues.real
    w2 = plan.noise.weights**2
    want = np.sum(w2 * (1.0 - np.exp(-2.0 * lam)) / (2.0 * lam))
    got = predicted_second_moment(plan)
    assert abs(got - want) < 1e-12 * want


def test_predicted_second_moment_matches_ensemble():
    plan = small_plan(g_preset("bump", 8.0, 16.0), replicas=3000, steps=32,
                      modes=8, grid=32, seed=9)
    ens = simulate(plan)
    coeffs = mode_coefficients(ens, plan.system)
    sq = np.sum(coeffs[:, -1, :] ** 2, axis=1)
    want = predicted_second_moment(plan)
    se = sq.std(ddof=1) / np.sqrt(len(sq))
    assert abs(sq.mean() - want) < 3 * se


def second_moment_reference(plan, steps):
    """Field-path oracle: each step's Phi from the noise synthesis times
    g(t_n), projected onto the drift modes, then the variance recursion."""
    system, noise, G = plan.system, plan.noise, plan.G
    mu, dt, tg = plan.drift_exponents.real, plan.dt, plan.time_grid
    var = np.zeros(system.mode_count)
    for n in range(steps):
        g = G.values_at(system.domain, n, tg[n])
        lifted = noise.synthesis if g is None else noise.synthesis * g[None, :]
        phi = system.weight * (lifted @ system.dual_modes.T)
        var = (np.exp(-2.0 * mu * dt) * var
               - np.expm1(-2.0 * mu * dt) / (2.0 * mu) * np.sum(phi**2, axis=0))
    return var.sum()


@pytest.mark.parametrize("case, route", [("d2-extra-noise", "dense"),
                                         ("separable:sin", "per-step")])
def test_predicted_second_moment_matches_field_path_oracle(case, route):
    if case == "d2-extra-noise":
        plan = core_plan(case, replicas=1, steps=8, stride=1)
    else:
        plan = small_plan(g_preset(case, 8.0, 16.0), replicas=1, steps=64)
    assert convolve._Core.build(plan).route == route
    for steps in (plan.steps, plan.steps // 2):
        want = second_moment_reference(plan, steps)
        got = predicted_second_moment(plan, at_time=steps * plan.dt)
        assert abs(got - want) <= 1e-13 * want


def test_refinement_shrinks_freezing_bias():
    g = g_preset("separable:sin", 8.0, 16.0)

    def predicted(steps):
        return predicted_second_moment(small_plan(g, replicas=1, steps=steps))

    p = {n: predicted(n) for n in (64, 128, 256, 512)}
    # freezing bias is first order in dt: consecutive gaps halve
    gap1, gap2, gap3 = p[128] - p[64], p[256] - p[128], p[512] - p[256]
    assert 1.7 < gap1 / gap2 < 2.3
    assert 1.7 < gap2 / gap3 < 2.3
    assert abs(gap3) / p[512] < 0.01


# ----- non-self-adjoint drift ------------------------------------------------


def nonnormal_system():
    # cell Peclet above 1 turns the FD spectrum complex while the
    # eigenbasis stays well conditioned on a small grid
    dom = SpectralDomain(1, 8, 8)
    spec = EllipticOperatorSpec(a=1.0, b=30.0, ellipticity=0.5)
    return dom, build_variable_coefficient_system(dom, spec)


def test_nonselfadjoint_paths_are_real():
    dom, system = nonnormal_system()
    assert np.iscomplexobj(system.eigenvalues)
    assert np.abs(system.eigenvalues.imag).max() > 1.0
    noise = make_cameron_martin(dom, theta=0.5, truncation=6)
    plan = SimulationPlan(
        system=system, noise=noise, G=GProcess.identity(), seed=8,
        T=0.5, steps=32, replicas=2,
        record=RecordSpec(time_stride=4, space_count=8),
    )
    ens = simulate(plan)
    assert ens.provenance["scheme"] == "frozen-exponential"
    assert "self-adjoint" in ens.provenance["scheme_reason"]
    assert np.isrealobj(ens.values)
    assert np.isfinite(ens.values).all()
    with pytest.raises(ValueError):
        predicted_second_moment(plan)


# ----- one core: routes and batching ----------------------------------------


D_PLANS = {"d2": ((2, 15, 4), 10), "d2-extra-noise": ((2, 15, 3), 12),
           "d3": ((3, 7, 3), 20)}


def core_plan(case, replicas=3, steps=600, stride=3):
    """Plans over the three noise-to-mode routes, real and complex, the
    per-axis synthesis of d >= 2, and a record that 40 sines fold onto
    (grid 63 at stride 4: the 15 points (i + 1) / 16)."""
    count = 32
    if case == "complex":
        dom, system = nonnormal_system()
        noise = make_cameron_martin(dom, theta=0.5, truncation=6)
    elif case in ("folded", "folded-bump"):
        dom, count = SpectralDomain(1, 63, 40), 16
        system = build_laplacian_system(dom)
        noise = make_cameron_martin(dom, theta=0.5, truncation=40)
    elif case in D_PLANS:
        # d2: 10 of the 16 modes of a 4x4 index set.  d2-extra-noise: 12
        # noise modes from a 4x4 set over a 3x3 drift set, so they are not
        # the drift's leading modes and rows of Phi are zero.  d3: 20 of 27
        dom_args, truncation = D_PLANS[case]
        dom = SpectralDomain(*dom_args)
        system = build_laplacian_system(dom)
        noise = make_cameron_martin(dom, theta=1.5, truncation=truncation)
    else:
        dom = SpectralDomain(1, 32, 12)
        if case in ("drifted", "smooth-varcoef"):
            system = build_variable_coefficient_system(dom, operator_preset(case))
        else:
            system = build_laplacian_system(dom)
        noise = make_cameron_martin(dom, theta=0.5, truncation=10)
    identity = ("identity", "drifted", "complex", "folded", *D_PLANS)
    g = GProcess.identity() if case in identity \
        else g_preset("separable:sin" if case == "separable:sin" else "bump",
                      8.0, 16.0)
    return SimulationPlan(
        system=system, noise=noise, G=g, seed=73, T=0.5, steps=steps,
        replicas=replicas,
        record=RecordSpec(time_stride=stride, space_count=count),
    )


def replica_increments(plan):
    return np.stack([sample_wiener_increments(plan.noise, plan.time_grid,
                                              plan.seed, r)
                     for r in range(plan.replicas)])


@pytest.mark.parametrize("case, route", [
    ("identity", "weights"), ("bump", "dense"), ("separable:sin", "per-step"),
    ("drifted", "dense"), ("complex", "dense"), ("d2", "weights"),
    ("d2-extra-noise", "dense"), ("folded", "weights"),
    ("folded-bump", "dense"),
])
def test_replica_values_independent_of_batching(case, route):
    # 600 steps span three 256-step blocks; stride 3 records across them
    plan = core_plan(case)
    one = simulate(plan, workers=1)
    two = simulate(plan, workers=2)  # batches of 2 and 1 replicas
    assert one.provenance["route"] == route
    assert np.array_equal(one.values, two.values)
    single = dataclasses.replace(plan, replicas=1)
    incs = replica_increments(plan)
    for r in range(plan.replicas):
        alone = simulate_from_increments(single, incs[r:r + 1])
        assert np.array_equal(alone.values[0], one.values[r])


def test_weights_route_compares_a_basis_held_apart():
    # the noise space and the drift, shifted or not, hold bases of their
    # own, whose multi-indices the route compares
    dom = SpectralDomain(1, 32, 12)
    noise = make_cameron_martin(dom, theta=0.5, truncation=12)
    for shift in (0.0, 5.0):
        system = build_laplacian_system(dom, shift=shift)
        plan = SimulationPlan(system=system, noise=noise,
                              G=GProcess.identity(), seed=73, steps=16,
                              replicas=1)
        assert convolve._Core.build(plan).route == "weights"
    # noise modes that are not the drift's leading modes leave the route;
    # noise modes (1,4), (4,1) and (2,4) reach no drift mode
    plan = core_plan("d2-extra-noise", replicas=2, steps=300, stride=1)
    core = convolve._Core.build(plan)
    assert core.route == "dense"
    rows = np.abs(core.operator).max(axis=1)
    assert np.flatnonzero(rows < 1e-12 * rows.max()).tolist() == [8, 9, 11]
    incs = replica_increments(plan)
    got = simulate_from_increments(plan, incs)
    want = field_path_reference(plan, incs, got.space_indices)
    assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max()


def test_weights_route_reads_no_dense_mode_table(monkeypatch):
    # count the full-grid mode tables that Laplacian bases compute
    full = []
    values_at = spectral.SineModes.values_at

    def counted(basis, axis_indices):
        if len(axis_indices) == basis.domain.grid_size:
            full.append(basis.domain)
        return values_at(basis, axis_indices)

    monkeypatch.setattr(spectral.SineModes, "values_at", counted)
    # the sweep grid with fewer noise modes than drift modes, so the noise
    # system has another cutoff, and a d = 2 plan
    dom = SpectralDomain(1, 4095, 2048)
    sweep = SimulationPlan(
        system=build_laplacian_system(dom),
        noise=make_cameron_martin(dom, theta=0.2, truncation=2000),
        G=GProcess.identity(), seed=3000, alpha=1.5, T=0.5, steps=300,
        replicas=2, record=RecordSpec(space_count=128))
    for plan in (sweep, core_plan("d2")):
        ens = simulate(plan, workers=2)
        assert ens.provenance["route"] == "weights"
    assert full == []
    # the dense route reads one table of the drift and one of the noise
    bump = core_plan("bump", replicas=1, steps=24)
    assert simulate(bump, workers=1).provenance["route"] == "dense"
    assert len(full) == 2
    assert set(full) == {bump.system.domain, bump.noise.laplacian.domain}
    # the sweep's recorded values are read off the dense table's own bits:
    # its 2000 modes fold onto the first 127 at the 127 recorded points
    core = convolve._Core.build(sweep)
    assert core.fold == 128
    dense = sweep.system.modes[: core.fold - 1, core.layout[0]]
    assert core.modes_rec.tobytes() == np.ascontiguousarray(dense).tobytes()


@pytest.mark.parametrize("case", ["d2", "d2-extra-noise", "d3"])
def test_separable_synthesis_matches_dense_synthesis(case):
    # stride 3 over three 256-step blocks; d2 and d3 propagate a partial
    # multi-index set, d2-extra-noise all 9 modes in eigenvalue order
    plan = core_plan(case)
    core = convolve._Core.build(plan)
    assert core.scatter is not None
    rec = plan.system.modes[: core.decay.size, core.layout[0]]
    dense = dataclasses.replace(core, scatter=None,
                                modes_rec=np.ascontiguousarray(rec))
    incs = replica_increments(plan)

    def slices(start, stop):
        return lambda b0, b1: incs[start:stop, :, b0:b1]

    got = core.run("separable", slices, 1).values
    want = dense.run("dense", slices, 1).values
    assert np.abs(want).max() > 0
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def fold_plan(grid, modes, count, g=None, steps=300, stride=1):
    dom = SpectralDomain(1, grid, modes)
    return SimulationPlan(
        system=build_laplacian_system(dom),
        noise=make_cameron_martin(dom, theta=0.2, truncation=modes),
        G=g or GProcess.identity(), seed=3000, alpha=1.5, T=0.5, steps=steps,
        replicas=2, record=RecordSpec(time_stride=stride, space_count=count))


def unfolded(core):
    """``core`` with today's synthesis: every propagated sine at the
    recorded points, one matmul."""
    dom = core.plan.system.domain
    factor = core.plan.system.basis.axis_values(
        core.plan.record.axis_indices(dom.grid_size))
    return dataclasses.replace(core, fold=None, modes_rec=np.ascontiguousarray(
        factor[: core.decay.size]))


@pytest.mark.parametrize("grid, modes, count, lattice", [
    (4095, 2048, 128, 128),  # the sweep: 2048 sines, 8 whole groups of 2L
    (255, 100, 64, 64),  # no whole group, 100 = 2L - 28
    (255, 128, 64, 64),  # one whole group, the CI step's folding sweep
    (63, 40, 16, 16),  # a whole group and a partial one
])
def test_folded_synthesis_matches_the_full_matmul(grid, modes, count, lattice):
    plan = fold_plan(grid, modes, count)
    core = convolve._Core.build(plan)
    assert core.fold == lattice
    assert core.modes_rec.shape == (lattice - 1, lattice - 1)
    full = unfolded(core)
    # the same mode states through both syntheses, one 256-step block
    states = np.random.default_rng(5).standard_normal((256, modes))
    got, want = np.empty((256, lattice - 1)), np.empty((256, lattice - 1))
    core._synthesize(states, got, np.empty((256, 2 * lattice)))
    full._synthesize(states, want, None)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    # and whole runs over the same increments, every row and replica
    incs = replica_increments(plan)

    def slices(start, stop):
        return lambda b0, b1: incs[start:stop, :, b0:b1]

    got = core.run("folded", slices, 1).values
    want = full.run("full", slices, 1).values
    assert np.abs(want).max() > 0
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("grid, modes, count", [
    (256, 128, 128),  # colored-d1-thm31's record: stride 2 does not divide 257
    (128, 128, 128),  # laplacian-d1's: 128 sines at 128 points, none aliased
    (4095, 127, 128),  # the sweep's record with L - 1 = 127 sines
])
def test_records_that_do_not_fold_keep_the_full_matmul(grid, modes, count):
    plan = fold_plan(grid, modes, count, steps=600, stride=3)
    core = convolve._Core.build(plan)
    assert core.fold is None
    full = unfolded(core)
    assert core.modes_rec.tobytes() == full.modes_rec.tobytes()
    incs = replica_increments(plan)
    got = simulate(plan, workers=1)
    assert np.array_equal(got.values, full.run(
        "full", lambda a, b: lambda b0, b1: incs[a:b, :, b0:b1], 1).values)


@pytest.mark.parametrize("g", [None, g_preset("bump", 8.0, 16.0)],
                         ids=["weights", "dense"])
@pytest.mark.parametrize("steps, stride", [
    (2 * convolve.DRAW_STEPS + 304, 7),  # rows straddle blocks and chunks
    (2 * convolve.DRAW_STEPS, 2 * convolve.BLOCK_STEPS),  # rowless blocks
])
def test_folding_plan_from_increments_is_simulate(g, steps, stride):
    plan = fold_plan(255, 100, 64, g=g, steps=steps, stride=stride)
    assert convolve._Core.build(plan).fold == 64
    one = simulate(plan, workers=1)
    assert np.array_equal(
        simulate_from_increments(plan, replica_increments(plan)).values,
        one.values)
    assert np.array_equal(simulate(plan, workers=2).values, one.values)


def field_path_reference(plan, increments, space_indices):
    """Step-by-step oracle: synthesise each step's increments on the grid,
    multiply by g(t_n), project onto the drift modes, then advance the OU
    recursion and synthesise the recorded points."""
    system, noise, G = plan.system, plan.noise, plan.G
    mu = plan.drift_exponents
    decay = np.exp(-mu * plan.dt)
    scale = np.sqrt(-np.expm1(-2.0 * mu.real * plan.dt) / (2.0 * mu.real * plan.dt))
    tg = plan.time_grid
    modes_rec = system.modes[:, space_indices]
    c = np.zeros((plan.replicas, system.mode_count), dtype=complex)
    values = [np.zeros((plan.replicas, len(space_indices)))]
    for n in range(plan.steps):
        fields = increments[:, :, n] @ noise.synthesis
        g = G.values_at(system.domain, n, tg[n])
        if g is not None:
            fields = fields * g[None, :]
        xi = system.weight * (fields @ np.conj(system.dual_modes).T)
        c = decay * c + scale * xi
        if (n + 1) % plan.record.time_stride == 0:
            values.append((c @ modes_rec).real)
    return np.stack(values, axis=1)


@pytest.mark.parametrize("case", [
    "identity", "bump", "smooth-varcoef", "separable:sin", "complex", "d3",
])
def test_routes_match_field_path_oracle(case):
    # 515 steps are two whole blocks and 3 steps, and a record stride of 5
    # does not divide a block, so the state carried into each block and
    # the first recorded row of each block both meet the oracle
    for steps, stride in ((300, 1), (2 * convolve.BLOCK_STEPS + 3, 5)):
        plan = core_plan(case, replicas=2, steps=steps, stride=stride)
        incs = replica_increments(plan)
        got = simulate_from_increments(plan, incs)
        want = field_path_reference(plan, incs, got.space_indices)
        scale = np.abs(want).max()
        assert scale > 0
        assert np.abs(got.values - want).max() <= 1e-12 * scale


@pytest.mark.parametrize("case, route", [
    ("identity", "weights"), ("bump", "dense"), ("separable:sin", "per-step"),
])
def test_draw_chunks_join_bitwise(case, route):
    # a partial last chunk, and a record stride that does not divide the
    # chunk, so recorded rows straddle every chunk boundary
    steps = 2 * convolve.DRAW_STEPS + 304
    plan = core_plan(case, steps=steps, stride=7)
    assert steps % 7 == 0 and convolve.DRAW_STEPS % 7
    one = simulate(plan, workers=1)
    two = simulate(plan, workers=2)  # batches of 2 and 1 replicas
    assert one.provenance["route"] == route
    table = simulate_from_increments(plan, replica_increments(plan))
    assert np.array_equal(one.values, table.values)
    assert np.array_equal(two.values, table.values)


@pytest.mark.parametrize("case, route", [
    ("identity", "weights"), ("bump", "dense"), ("d2", "weights"),
])
@pytest.mark.parametrize("workers", [1, 2])
def test_simulate_into_out_is_bitwise(tmp_path, case, route, workers):
    plan = core_plan(case)
    want = simulate(plan, workers=workers)
    assert want.provenance["route"] == route
    # a shared file mapping, as a persisted run passes
    buf = np.memmap(tmp_path / "out.bin", dtype=np.float64, mode="w+",
                    shape=plan.record_shape)
    got = simulate(plan, workers=workers, out=buf)
    assert got.values is buf
    assert np.array_equal(buf, want.values)
    assert got.provenance == want.provenance


def read_only(shape):
    out = np.empty(shape)
    out.flags.writeable = False
    return out


@pytest.mark.parametrize("make", [
    lambda shape: np.empty(shape[:2] + (shape[2] + 1,)),
    lambda shape: np.empty(shape, dtype=np.float32),
    lambda shape: np.empty(shape, dtype=">f8"),
    lambda shape: np.empty(shape[::-1]).T,
    lambda shape: np.empty(shape[:2] + (2 * shape[2],))[:, :, ::2],
    read_only,
    lambda shape: np.empty(shape).tolist(),
], ids=["shape", "float32", "big-endian", "fortran", "strided", "read-only",
        "list"])
def test_simulate_refuses_a_bad_out(make, monkeypatch):
    plan = core_plan("identity", steps=60)
    # refused before anything is built or drawn
    monkeypatch.setattr(convolve._Core, "build", None)
    with pytest.raises(ValueError, match="out must be a C-contiguous"):
        simulate(plan, workers=1, out=make(plan.record_shape))


def budget_plan(steps):
    dom = SpectralDomain(1, 64, 32)
    noise = make_cameron_martin(dom, theta=0.0, truncation=32)
    return SimulationPlan(system=build_laplacian_system(dom), noise=noise,
                          G=GProcess.identity(), seed=0, steps=steps,
                          replicas=100)


# one draw chunk of increments, one block of mode states, carry and scratch
BUDGET_PER_REPLICA = (8 * 32 * convolve.DRAW_STEPS
                      + 8 * (convolve.BLOCK_STEPS + 2) * 32)


def test_batch_size_budget_and_cap(monkeypatch):
    # computed from the buffer model, nothing of this size is allocated
    core = convolve._Core.build(budget_plan(1 << 16))
    assert convolve.BATCH_BYTES // BUDGET_PER_REPLICA > 100
    assert core.pool(1) == (1, 100)
    monkeypatch.setattr(convolve, "BATCH_BYTES", 7 * BUDGET_PER_REPLICA + 1)
    assert core.pool(1) == (1, 7)
    # the budget covers the pool: 7 threads of one replica, not 20 batches
    assert core.pool(20) == (7, 1)
    # only one chunk of increments counts, so longer plans batch alike
    huge = convolve._Core.build(budget_plan(1 << 22))
    assert huge.pool(1) == (1, 7)
    monkeypatch.setattr(convolve, "BATCH_BYTES", BUDGET_PER_REPLICA - 1)
    with pytest.raises(ValueError, match=f"needs {BUDGET_PER_REPLICA} bytes"):
        huge.pool(1)


def test_pool_holds_at_most_the_budget(monkeypatch):
    plan = budget_plan(1 << 16)
    # the per-step route adds one block of the synthesised field per batch
    stepped = dataclasses.replace(plan, G=g_preset("separable:sin", 8.0, 16.0))
    field = 8 * convolve.BLOCK_STEPS * 64
    for budget in (convolve.BATCH_BYTES, 7 * BUDGET_PER_REPLICA + 1,
                   3 * (BUDGET_PER_REPLICA + field)):
        monkeypatch.setattr(convolve, "BATCH_BYTES", budget)
        for p, shared in ((plan, 0), (stepped, field)):
            core = convolve._Core.build(p)
            for workers in (1, 2, 3, 7, 64):
                threads, batch = core.pool(workers)
                assert 1 <= threads <= workers and batch >= 1
                assert threads * (shared + batch * BUDGET_PER_REPLICA) <= budget


def test_replica_over_its_share_runs_on_fewer_threads(monkeypatch):
    plan = dataclasses.replace(budget_plan(convolve.DRAW_STEPS + 76),
                               replicas=5)
    one = simulate(plan, workers=1)
    pools, map_threads = [], convolve.map_threads

    def recorded(fn, items, workers=None):
        pools.append(workers)
        return map_threads(fn, items, workers)

    monkeypatch.setattr(convolve, "map_threads", recorded)
    # one replica is over a third of the budget, so 2 of 3 threads run
    budget = 2 * BUDGET_PER_REPLICA + 1
    assert BUDGET_PER_REPLICA > budget // 3
    monkeypatch.setattr(convolve, "BATCH_BYTES", budget)
    three = simulate(plan, workers=3)
    assert pools == [budget // BUDGET_PER_REPLICA] == [2]
    assert np.array_equal(three.values, one.values)


def test_over_budget_replica_is_refused_before_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("a generator was built")

    plan = budget_plan(4096)
    monkeypatch.setattr(convolve, "_WienerStreams", no_draws)
    monkeypatch.setattr(convolve, "BATCH_BYTES", BUDGET_PER_REPLICA - 1)
    with pytest.raises(ValueError, match=f"needs {BUDGET_PER_REPLICA} bytes"):
        simulate(plan, workers=1)
    # per-step route: one block of the synthesised field counts as well
    stepped = dataclasses.replace(plan, G=g_preset("separable:sin", 8.0, 16.0))
    field = 8 * convolve.BLOCK_STEPS * 64
    monkeypatch.setattr(convolve, "BATCH_BYTES", BUDGET_PER_REPLICA + field - 1)
    with pytest.raises(ValueError, match=f"needs {BUDGET_PER_REPLICA + field}"):
        simulate(stepped, workers=1)


# ----- plan validation and layout --------------------------------------------


def test_plan_validation():
    dom = SpectralDomain(1, 16, 4)
    system = build_laplacian_system(dom)
    noise = make_cameron_martin(dom, 0.5, 4)
    good = dict(system=system, noise=noise, G=GProcess.identity(), seed=1)
    with pytest.raises(ValueError, match="alpha"):
        SimulationPlan(**good, alpha=2.5)
    with pytest.raises(ValueError, match="divide"):
        SimulationPlan(**good, steps=10, record=RecordSpec(time_stride=3))
    other = make_cameron_martin(SpectralDomain(1, 8, 4), 0.5, 4)
    with pytest.raises(ValueError, match="grid"):
        SimulationPlan(system=system, noise=other, G=GProcess.identity(), seed=1)


def test_record_layout_2d():
    dom = SpectralDomain(2, 15, 3)
    system = build_laplacian_system(dom)
    noise = make_cameron_martin(dom, theta=1.5, truncation=9)
    plan = SimulationPlan(
        system=system, noise=noise, G=GProcess.identity(), seed=2,
        T=0.25, steps=8, replicas=2,
        record=RecordSpec(time_stride=2, space_count=8),
    )
    ens = simulate(plan)
    assert ens.values.shape == (2, 5, 49)
    assert ens.space_shape == (7, 7)
    assert ens.space_points.shape == (49, 2)
    assert abs(ens.space_weight - (2.0 / 16.0) ** 2) < 1e-15
    # recorded points form the odd sublattice of the 15x15 raster
    assert np.allclose(ens.space_points[0], [2.0 / 16.0, 2.0 / 16.0])
    assert len(ens.time_grid) == 5
