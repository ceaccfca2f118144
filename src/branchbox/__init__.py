"""Branching Gaussian ensembles in a box, with density-matrix cross checks.

A particle in a 1-d box is modeled as an ensemble of tagged Gaussian
packets: each packet spreads for one decoherence period, splits into
localized offspring on a fixed position lattice, and never recombines.
The package provides the branching engine (weighted and collapse
evolution, plus born_test's single counted event), ensemble statistics
against classical oracles, an independent grid density-matrix oracle,
and a seeded scenario CLI.
"""

from .model import (
    DEFAULT_BIN_WIDTH_FRACTION,
    PhysicalParams,
    bin_weights,
    reflect_center,
    spread_variance,
)
from .branching import (
    CollapseBatch,
    Ensemble,
    TagReport,
    apportion_counts,
    evolve_ensemble_step,
    evolve_ensemble_steps,
    midbox_ensemble,
    run_collapse_trajectories,
    trajectory_seed,
    verify_tag_uniqueness,
)
from .stats import (
    ChiSquareResult,
    DiffusionEstimate,
    ExpectationComparison,
    VarianceSeries,
    chi_square_frequencies,
    coarse_entropy,
    effective_branch_count,
    ensemble_position_mean,
    ensemble_position_variance,
    expectation_compare,
    fit_diffusion,
    pool_small_cells,
    position_histogram,
    sample_branch_centers,
    tv_to_uniform,
)
from .density import (
    GridDensityMatrix,
    GridWavefunction,
    UnitaryPropagator,
    build_box_hamiltonian,
    classical_random_walk_oracle,
    fringe_content,
    grid_points,
    grw_localization_channel,
    interference_visibility,
    mixture_density,
    packet_state,
    random_mixed_state,
    superpose,
    von_neumann_entropy,
)
from .config import ConfigError, RunConfig, default_config, parse_config
from .runner import CheckResult, RunSummary, run_scenario

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_BIN_WIDTH_FRACTION",
    "PhysicalParams",
    "bin_weights",
    "reflect_center",
    "spread_variance",
    "CollapseBatch",
    "Ensemble",
    "TagReport",
    "apportion_counts",
    "evolve_ensemble_step",
    "evolve_ensemble_steps",
    "midbox_ensemble",
    "run_collapse_trajectories",
    "trajectory_seed",
    "verify_tag_uniqueness",
    "ChiSquareResult",
    "DiffusionEstimate",
    "ExpectationComparison",
    "VarianceSeries",
    "chi_square_frequencies",
    "coarse_entropy",
    "effective_branch_count",
    "ensemble_position_mean",
    "ensemble_position_variance",
    "expectation_compare",
    "fit_diffusion",
    "pool_small_cells",
    "position_histogram",
    "sample_branch_centers",
    "tv_to_uniform",
    "GridDensityMatrix",
    "GridWavefunction",
    "UnitaryPropagator",
    "build_box_hamiltonian",
    "classical_random_walk_oracle",
    "fringe_content",
    "grid_points",
    "grw_localization_channel",
    "interference_visibility",
    "mixture_density",
    "packet_state",
    "random_mixed_state",
    "superpose",
    "von_neumann_entropy",
    "ConfigError",
    "RunConfig",
    "default_config",
    "parse_config",
    "CheckResult",
    "RunSummary",
    "run_scenario",
    "__version__",
]
