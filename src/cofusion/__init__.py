"""Conservative fusion of correlated Gaussian estimates.

Fusion rules (covariance intersection, block-wise intersection, and a
sampled semidefinite bound), a rejection sampler over admissible
cross-covariances, a multi-agent tracking simulator, and Monte-Carlo
evaluation utilities.
"""

from .core import (
    BlockPartition,
    ConfigError,
    CrossSparsityPattern,
    DimensionError,
    FusionError,
    FusionMethod,
    FusionResult,
    GaussianEstimate,
    JointCovariance,
    NotPositiveDefiniteError,
    NotSymmetricError,
    SamplingError,
    SolverError,
    cov_to_corr,
    is_conservative,
    partition_from_sparsity,
    partition_to_sparsity,
)
from .fusion import ci_fuse, exact_fuse, nmci_fuse, optimize_ci_omega, realized_cov
from .sampler import UncertaintySample, sample_cross, sample_set
from .sdp import (SampledFusionProblem, SdpSolution, SolveStatus, build_problem, robust_fuse,
                  solve, solve_prefixes)
from .metrics import chi2_band, chi2_quantile, conservativeness_sweep, nees

__version__ = "0.1.0"

__all__ = [
    "BlockPartition",
    "ConfigError",
    "CrossSparsityPattern",
    "DimensionError",
    "FusionError",
    "FusionMethod",
    "FusionResult",
    "GaussianEstimate",
    "JointCovariance",
    "NotPositiveDefiniteError",
    "NotSymmetricError",
    "SamplingError",
    "SolverError",
    "SampledFusionProblem",
    "SdpSolution",
    "SolveStatus",
    "UncertaintySample",
    "build_problem",
    "chi2_band",
    "chi2_quantile",
    "ci_fuse",
    "conservativeness_sweep",
    "cov_to_corr",
    "exact_fuse",
    "is_conservative",
    "nees",
    "nmci_fuse",
    "optimize_ci_omega",
    "partition_from_sparsity",
    "partition_to_sparsity",
    "realized_cov",
    "robust_fuse",
    "sample_cross",
    "sample_set",
    "solve",
    "solve_prefixes",
    "__version__",
]
