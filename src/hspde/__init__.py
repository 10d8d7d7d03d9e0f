"""Spectral simulation and statistical verification of parabolic SPDE regularity.

The package builds mild solutions of parabolic stochastic Cauchy problems
driven by cylindrical Wiener noise in eigencoordinates, estimates their
temporal and spatial Holder exponents from simulated ensembles, and checks
the estimates against the admissible exponent regions predicted by the
regularity theory.
"""

from .spectral import (
    SpectralDomain,
    EllipticOperatorSpec,
    EigenSystem,
    build_laplacian_system,
    build_variable_coefficient_system,
    diagonal_system,
    project,
    synthesize,
)
from .fracpow import (
    frac_power_eigen,
    frac_power_quadrature,
    balakrishnan_forward,
)
from .gamma_radon import (
    FiniteRankOperator,
    GammaNormEstimate,
    mc_gamma_norm,
    check_domination_bound,
    check_ideal_property,
)
from .noise import (
    CameronMartinSpec,
    GProcess,
    g_preset,
    make_cameron_martin,
    sample_wiener_increments,
    validate_noise_hypotheses,
)
from .convolve import (
    SimulationPlan,
    RecordSpec,
    TrajectoryEnsemble,
    simulate,
    simulate_from_increments,
    predicted_second_moment,
)
from .regularity import (
    RegularityQuery,
    ParameterSelection,
    ExponentEstimate,
    RegionVerdict,
    admissible,
    exponent_budget,
    gamma_ceiling,
    region_boundary,
    select_sigma_delta,
    estimate_temporal_exponent,
    estimate_spatial_exponent,
    verify_region,
)
from .trajio import save_trajectories, load_trajectories, export_trajectories_csv
from .presets import get_preset, list_presets, operator_preset
from .harness import (
    ExperimentConfig,
    RunManifest,
    StageError,
    HypothesisError,
    resolve_config,
    run_experiment,
    export_plotdata,
    region_csv,
)

__version__ = "0.1.0"
