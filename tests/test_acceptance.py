"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Every check runs at its stated tolerance; nothing here is weakened to make
a run green.  Statistical criteria use frozen seeds so the outcomes are
deterministic.
"""
import numpy as np

from hspde.convolve import RecordSpec, SimulationPlan, TrajectoryEnsemble, simulate
from hspde.fracpow import (
    NODES,
    balakrishnan_forward,
    frac_power_eigen,
    frac_power_quadrature,
)
from hspde.gamma_radon import FiniteRankOperator, check_ideal_property, mc_gamma_norm
from hspde.harness import run_experiment
from hspde.noise import GProcess, g_preset, make_cameron_martin
from hspde.presets import get_preset
from hspde.regularity import (
    RegularityQuery,
    admissible,
    estimate_spatial_exponent,
    estimate_temporal_exponent,
    exponent_budget,
    select_sigma_delta,
    verify_region,
)
from hspde.spectral import (
    SpectralDomain,
    build_laplacian_system,
    diagonal_system,
    synthesize,
)

from fractions import Fraction


def _report(tag: str, ok: bool, detail: str) -> None:
    line = f"{tag}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


def ensemble_from_preset(name: str, alpha=None) -> TrajectoryEnsemble:
    """Simulate a built-in preset through the public API."""
    cfg = get_preset(name)
    assert cfg["operator"]["kind"] == "laplacian"
    dom = SpectralDomain(**cfg["domain"])
    system = build_laplacian_system(dom)
    spec = make_cameron_martin(dom, cfg["noise"]["theta"],
                               cfg["noise"]["truncation"])
    g = cfg["g"]
    G = GProcess.identity() if g["kind"] == "identity" \
        else g_preset(g["name"], g["m"], g["q"])
    p = cfg["plan"]
    plan = SimulationPlan(
        system=system, noise=spec, G=G, seed=p["seed"],
        alpha=float(alpha if alpha is not None else p.get("alpha", 2.0)),
        T=p.get("T", 1.0), steps=p["steps"], replicas=p["replicas"],
        record=RecordSpec(time_stride=p.get("time_stride", 1),
                          space_count=p.get("space_count", 64)),
    )
    return simulate(plan)


# ---------------------------------------------------------------------------
# AC-1: both fractional-power routes agree with the spectral ground truth
# ---------------------------------------------------------------------------

def test_ac1_fractional_power_routes():
    lap = build_laplacian_system(SpectralDomain(1, 63, 16))
    systems = [
        (diagonal_system(np.array([1.0, 4.0, 9.0])),
         np.array([0.7, -1.3, 0.4])),
        (lap, synthesize(lap, np.linspace(1.0, -1.0, 16))),
    ]
    worst = 0.0
    for z in (0.25, 0.5, 0.75):
        for system, x in systems:
            inv = frac_power_quadrature(system, z, x)
            want = frac_power_eigen(system, -z, x)
            worst = max(worst, float(np.linalg.norm(inv - want)
                                     / np.linalg.norm(want)))
            fwd = balakrishnan_forward(system, z, x)
            want = frac_power_eigen(system, z, x)
            worst = max(worst, float(np.linalg.norm(fwd - want)
                                     / np.linalg.norm(want)))
    _report("AC-1", worst <= 1e-7,
            f"max relative L2 error {worst:.3e} <= 1e-07 "
            f"(both routes, both spectra, z in {{0.25, 0.5, 0.75}}, "
            f"{NODES} nodes)")


# ---------------------------------------------------------------------------
# AC-2: the single-mode solver reproduces the exact OU variance at t = 1
# ---------------------------------------------------------------------------

def test_ac2_single_mode_ou_variance():
    system = diagonal_system([1.0])
    spec = make_cameron_martin(system.domain, 0.0, 1)
    plan = SimulationPlan(system=system, noise=spec, G=GProcess.identity(),
                          seed=424242, alpha=2.0, T=1.0, steps=64,
                          replicas=100_000,
                          record=RecordSpec(time_stride=64, space_count=1))
    ens = simulate(plan)
    coeff = ens.values[:, -1, 0] / system.modes[0, 0]
    v_hat = float(coeff.var(ddof=1))
    v_star = (1.0 - np.exp(-2.0)) / 2.0
    se = v_hat * np.sqrt(2.0 / (len(coeff) - 1))
    z_exact = (v_hat - v_star) / se
    ok_exact = abs(z_exact) <= 3.0

    # independent route: explicit Euler-Maruyama at a fine step
    rng = np.random.default_rng(20260815)
    n_em, dt = 20_000, 1e-4
    em = np.zeros(n_em)
    root = np.sqrt(dt)
    for _ in range(10_000):
        em += -em * dt + rng.standard_normal(n_em) * root
    v_em = float(em.var(ddof=1))
    se_em = v_em * np.sqrt(2.0 / (n_em - 1))
    z_cross = (v_hat - v_em) / np.hypot(se, se_em)
    ok_cross = abs(z_cross) <= 3.0

    _report("AC-2", ok_exact and ok_cross,
            f"Var(t=1) = {v_hat:.5f} vs exact {v_star:.5f} (|z|={abs(z_exact):.2f}) "
            f"and vs Euler-Maruyama {v_em:.5f} (|z|={abs(z_cross):.2f}), "
            f"both <= 3 std errors at 1e5 replicas")


# ---------------------------------------------------------------------------
# AC-3: gamma-norm identities
# ---------------------------------------------------------------------------

def test_ac3_gamma_norm_identities():
    rels = {}
    for n, seed in ((4, 31), (16, 32)):
        est = mc_gamma_norm(FiniteRankOperator.identity(n), p=2.0,
                            samples=100_000, seed=seed)
        rels[n] = abs(est.value - np.sqrt(n)) / np.sqrt(n)
    ok_identity = all(rel <= 0.02 for rel in rels.values())

    rng = np.random.default_rng(77)
    mat = rng.normal(size=(6, 6))
    rot, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    base = mc_gamma_norm(FiniteRankOperator.from_matrix(mat),
                         p=4.0, samples=100_000, seed=33)
    turned = mc_gamma_norm(FiniteRankOperator.from_matrix(mat @ rot),
                           p=4.0, samples=100_000, seed=34)
    z_rot = abs(base.value - turned.value) / np.hypot(
        base.value_std_error, turned.value_std_error)
    ok_rotation = z_rot <= 3.0

    triple_rng = np.random.default_rng(13)
    ok_ideal = True
    for trial in range(20):
        d1 = triple_rng.uniform(0, 1, 3)
        d2 = triple_rng.uniform(0, 1, 8)
        mat = triple_rng.normal(size=(8, 3))
        rep = check_ideal_property(np.diag(d2),
                                   FiniteRankOperator.from_matrix(mat),
                                   np.diag(d1), p=2.0, samples=8_000,
                                   seed=100 + trial)
        ok_ideal = ok_ideal and rep["ok"]

    _report("AC-3", ok_identity and ok_rotation and ok_ideal,
            f"identity rel errors n=4: {rels[4]:.4f}, n=16: {rels[16]:.4f} "
            f"(<= 0.02); rotation |z|={z_rot:.2f} <= 3; "
            f"ideal property held on 20/20 seeded triples")


# ---------------------------------------------------------------------------
# AC-4: region arithmetic reproduces the hand-worked rationals exactly
# ---------------------------------------------------------------------------

def test_ac4_region_arithmetic_exact():
    p32 = RegularityQuery("prop32", d=1, q=8, p=4)
    colored = RegularityQuery("colored", d=1, q=16, theta=0.4, m=8)
    ok_budget = exponent_budget(p32) == Fraction(1, 8)
    ok_colored = exponent_budget(colored) == Fraction(17, 80)

    frac2 = RegularityQuery("fractional", d=1, q=8, p=4, alpha=2)
    ok_coincide = True
    for beta in np.linspace(0.0, 0.2, 20):
        for gamma in np.linspace(0.0, 0.3, 20):
            if admissible(p32, beta, gamma) != admissible(frac2, beta, gamma):
                ok_coincide = False
    sel = select_sigma_delta(p32, Fraction(1, 20), Fraction(1, 10))
    ok_intervals = (
        sel.sigma_interval == (Fraction(1, 8), Fraction(3, 20))
        and sel.delta_interval == (Fraction(7, 40), Fraction(3, 16))
    )
    _report("AC-4", ok_budget and ok_colored and ok_coincide and ok_intervals,
            "budget 1/8 and 17/80 exact; alpha=2 coincides with the "
            "second-order region on a 20x20 grid; selection intervals "
            "(0.125, 0.15) and (0.175, 0.1875) exact")


# ---------------------------------------------------------------------------
# AC-5: estimator calibration on known-roughness baselines
# ---------------------------------------------------------------------------

def test_ac5_estimator_calibration():
    rng = np.random.default_rng(42)
    reps, n, n_s = 32, 1 << 14, 64
    incs = rng.standard_normal((reps, n, n_s)) * np.sqrt(1.0 / n)
    vals = np.empty((reps, n + 1, n_s))
    vals[:, 0] = 0.0
    np.cumsum(incs, axis=1, out=vals[:, 1:])
    del incs
    brownian = TrajectoryEnsemble(
        values=vals,
        time_grid=np.linspace(0.0, 1.0, n + 1),
        space_points=np.linspace(0.0, 1.0, n_s).reshape(-1, 1),
        space_indices=np.arange(n_s),
        space_shape=(n_s,),
        space_weight=1.0 / n_s,
        provenance={"scheme": "injected", "dimension": 1},
    )
    beta_bm = estimate_temporal_exponent(brownian, mode="sup-space").beta_hat
    del brownian, vals
    ok_bm = 0.40 <= beta_bm <= 0.55

    heat = ensemble_from_preset("heat-white-d1-baseline")
    beta_heat = estimate_temporal_exponent(heat, mode="pointwise").beta_hat
    gamma_heat = estimate_spatial_exponent(heat).gamma_hat
    ok_heat = 0.17 <= beta_heat <= 0.32 and 0.40 <= gamma_heat <= 0.60

    _report("AC-5", ok_bm and ok_heat,
            f"injected Brownian beta_hat={beta_bm:.4f} in [0.40, 0.55]; "
            f"white-noise heat beta_hat={beta_heat:.4f} in [0.17, 0.32], "
            f"gamma_hat={gamma_heat:.4f} in [0.40, 0.60]")


# ---------------------------------------------------------------------------
# AC-6: verified admissible region PASSes; an inflated one FAILs
# ---------------------------------------------------------------------------

def test_ac6_region_confrontation():
    ens = ensemble_from_preset("colored-d1-thm31")
    query = RegularityQuery(**get_preset("colored-d1-thm31")["query"])
    verdict = verify_region(ens, query)
    ok_pass = verdict.passed and len(verdict.failures) == 0

    inflated = RegularityQuery("colored", d=query.d, q=query.q,
                               theta=query.theta + 0.5, m=query.m)
    adversarial = verify_region(ens, inflated)
    ok_fail = not adversarial.passed and len(adversarial.failures) > 0

    _report("AC-6", ok_pass and ok_fail,
            f"theory query PASS over {len(verdict.vertices)} vertices "
            f"(tolerance 0.10); inflated-budget query FAIL with "
            f"{len(adversarial.failures)} failing vertices on the same "
            f"ensemble")


# ---------------------------------------------------------------------------
# AC-7: temporal exponent nondecreasing in the drift order alpha
# ---------------------------------------------------------------------------

def test_ac7_fractional_alpha_sweep():
    preset = get_preset("fractional-alpha-sweep")
    alphas = preset["sweep"]["alpha"]
    slack = preset["sweep"]["slack"]
    betas = []
    for alpha in alphas:
        ens = ensemble_from_preset("fractional-alpha-sweep", alpha=alpha)
        betas.append(estimate_temporal_exponent(ens, mode="pointwise").beta_hat)
        del ens
    ok = all(betas[i + 1] >= betas[i] - slack for i in range(len(betas) - 1))
    pairs = ", ".join(f"alpha={a}: {b:.4f}" for a, b in zip(alphas, betas))
    _report("AC-7", ok,
            f"beta_hat nondecreasing with slack {slack} per step ({pairs})")


# ---------------------------------------------------------------------------
# AC-8: determinism and linearity
# ---------------------------------------------------------------------------

def test_ac8_determinism_and_linearity(tmp_path):
    cfg = {
        "name": "determinism",
        "domain": {"dimension": 1, "grid_size": 64, "mode_cutoff": 64},
        "noise": {"theta": 0.0, "truncation": 64},
        "plan": {"seed": 8080, "steps": 2048, "replicas": 4,
                 "space_count": 64},
        "query": {"theorem": "prop32", "d": 1, "q": 8, "p": 4},
    }
    payloads = []
    for sub in ("first", "second"):
        run_cfg = dict(cfg, output_dir=str(tmp_path / sub))
        manifest = run_experiment(run_cfg)
        payloads.append(
            (tmp_path / sub / manifest.run_id / "estimates.csv").read_bytes())
    ok_bytes = payloads[0] == payloads[1]

    dom = SpectralDomain(1, 64, 64)
    system = build_laplacian_system(dom)
    spec = make_cameron_martin(dom, 0.0, 64)

    def multiplied(gain):
        plan = SimulationPlan(
            system=system, noise=spec,
            G=GProcess.multiplication(gain, m=8.0, q=16.0),
            seed=909, T=1.0, steps=512, replicas=4,
            record=RecordSpec(space_count=64))
        return simulate(plan)

    single = multiplied(1.0)
    double = multiplied(2.0)
    ok_linear = np.array_equal(double.values, 2.0 * single.values)

    _report("AC-8", ok_bytes and ok_linear,
            "same-seed estimate CSVs byte-identical; doubling the "
            "multiplier doubles every trajectory value exactly")
