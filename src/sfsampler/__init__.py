"""Sampler for unnormalized targets via a drifted diffusion over unit time.

The target enters only through the log density ratio against a standard
Gaussian (and its gradient, when available), so normalizing constants
never matter. A run integrates the drifted diffusion from the origin with
Euler steps; the drift is either a closed form (Gaussian mixtures) or a
shared-batch Monte-Carlo estimate, optionally stabilized by mixing a
small Gaussian floor into the target.
"""

from .batches import SampleBatch, config_digest, load_batch, save_batch
from .drift import (
    DRIFT_MODES,
    DriftEvaluator,
    ProbeGrid,
    RegularityEstimate,
    default_drift_mode,
    drift_exact,
    drift_mc_grad,
    drift_mc_stein,
    estimate_regularity,
    probe_points,
)
from .errors import (
    ConfigError,
    DriftSingularityError,
    NonFiniteStateError,
    UnknownTargetError,
    UnsupportedTargetError,
)
from .harness import ExperimentPlan, compare_samplers, mode_mass_balance, run_experiment
from .metrics import (
    RateFit,
    SlicedW2,
    exact_w2_assignment,
    fit_rate,
    sliced_w2,
    w2_noise_floor,
    wasserstein2_1d,
)
from .rng import STREAM_POLICY, child_seeds, substream
from .sampler import EpsSchedule, SamplerConfig, sfs_run, ula_run
from .targets import (
    GaussianMixture,
    TargetRegularity,
    TargetSpec,
    build_target,
    from_potential,
    gaussian,
    gaussian_mixture_target,
    gaussian_potential,
    quartic_bump,
    regularize,
    sample_ground_truth,
    standard_gaussian,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DRIFT_MODES",
    "DriftEvaluator",
    "DriftSingularityError",
    "EpsSchedule",
    "ExperimentPlan",
    "GaussianMixture",
    "NonFiniteStateError",
    "ProbeGrid",
    "RateFit",
    "RegularityEstimate",
    "STREAM_POLICY",
    "SampleBatch",
    "SamplerConfig",
    "SlicedW2",
    "TargetRegularity",
    "TargetSpec",
    "UnknownTargetError",
    "UnsupportedTargetError",
    "__version__",
    "build_target",
    "child_seeds",
    "compare_samplers",
    "config_digest",
    "default_drift_mode",
    "drift_exact",
    "drift_mc_grad",
    "drift_mc_stein",
    "estimate_regularity",
    "exact_w2_assignment",
    "fit_rate",
    "from_potential",
    "gaussian",
    "gaussian_mixture_target",
    "gaussian_potential",
    "load_batch",
    "mode_mass_balance",
    "probe_points",
    "quartic_bump",
    "regularize",
    "run_experiment",
    "sample_ground_truth",
    "save_batch",
    "sfs_run",
    "sliced_w2",
    "standard_gaussian",
    "substream",
    "ula_run",
    "w2_noise_floor",
    "wasserstein2_1d",
]
