"""heavytail: Monte Carlo laboratory for cluster indices, stable central
limits, and precise large deviations of heavy-tailed Markov chains.

The package simulates regularly varying chains (linear autoregressions,
stochastic recurrence equations, GARCH volatility recursions), estimates
the cluster index of partial sums along directions by independent routes,
and validates the implied stable laws, large-deviation ratios, and
regenerative Gaussian limits against each other.
"""

from .errors import (
    ConfigError,
    DegenerateSampleError,
    DivergenceError,
    HeavytailError,
    InsufficientCyclesError,
    MinorizationInvalidError,
    NoRootError,
    OutOfRegimeError,
    ParameterError,
    SingularDrawError,
    UnsupportedCaseError,
    UnsupportedLawError,
    WidenRError,
)
from .randkit import RngStream, TailLaw, derive_stream
from .models import (
    DriftReport,
    Garch11Spec,
    KestenSpec,
    ModelSpec,
    Var1Spec,
    drift_margin,
    simulate_path,
    tail_index,
)
from .tailstats import (
    Direction,
    TailFit,
    hill_estimate,
)
from .cluster import (
    ClusterIndexEstimate,
    LimitMeasureEvaluator,
    closed_form_cluster_index,
    cluster_index_tail_process,
    extremal_index,
    nu_alpha,
    telescoping_difference,
)
from .limits import (
    CfComparison,
    GaussianCltReport,
    LdpScanResult,
    StableLawParams,
    gaussian_sigma,
    ldp_scan,
    stable_cf,
    stable_check,
)
from .regen import (
    MinorizationSpec,
    RegenBlocks,
    harvest_blocks,
    kac_check,
)
from .cli import ExperimentConfig, RunManifest, __version__, parse_config, run

__all__ = [
    "CfComparison",
    "ClusterIndexEstimate",
    "ConfigError",
    "DegenerateSampleError",
    "Direction",
    "DivergenceError",
    "DriftReport",
    "ExperimentConfig",
    "Garch11Spec",
    "GaussianCltReport",
    "HeavytailError",
    "InsufficientCyclesError",
    "KestenSpec",
    "LdpScanResult",
    "LimitMeasureEvaluator",
    "MinorizationInvalidError",
    "MinorizationSpec",
    "ModelSpec",
    "NoRootError",
    "OutOfRegimeError",
    "ParameterError",
    "RegenBlocks",
    "RngStream",
    "RunManifest",
    "SingularDrawError",
    "StableLawParams",
    "TailFit",
    "TailLaw",
    "UnsupportedCaseError",
    "UnsupportedLawError",
    "Var1Spec",
    "WidenRError",
    "closed_form_cluster_index",
    "cluster_index_tail_process",
    "derive_stream",
    "drift_margin",
    "extremal_index",
    "gaussian_sigma",
    "harvest_blocks",
    "hill_estimate",
    "kac_check",
    "ldp_scan",
    "nu_alpha",
    "parse_config",
    "run",
    "simulate_path",
    "stable_cf",
    "stable_check",
    "tail_index",
    "telescoping_difference",
]
