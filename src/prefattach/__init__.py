"""Preferential-attachment multigraphs with an event-clock core.

Simulates the growing multigraph (new vertex joins one existing vertex,
chosen with probability proportional to degree + beta, by a random number of
parallel edges), couples it to continuous-time size processes, computes the
limiting degree spectrum numerically, and ships an acceptance suite that
checks the limit laws at desk scale.
"""

from .analysis import (
    ChiSquareResult,
    ConvergenceReport,
    DistanceReport,
    EmpiricalDistribution,
    FreezeReport,
    TailFit,
    distribution_distance,
    embedding_equivalence_test,
    empirical_distribution,
    freeze_detector,
    max_degree_check,
    tail_fit,
    trajectory_limit_check,
)
from .branching import (
    BranchingConfig,
    EmbeddingResult,
    JumpPath,
    ScaledTrajectory,
    TauDiagnostics,
    run_embedding,
    simulate_mbp,
    simulate_mbpi,
    tau_diagnostics,
    zeta_trajectory,
)
from .config import ExperimentConfig, parse_config
from .graph import (
    DegreeLedger,
    ModelConfig,
    RunResult,
    run_chain,
)
from .laws import (
    EdgeCountDistribution,
    deterministic,
    explicit,
    geometric,
    validate_edge_law,
)
from .replicate import AggregateResult, ChainSummary, EmbedSummary, replicate
from .streams import mix64, substream
from .theory import (
    LimitSpectrum,
    MomentCurve,
    moment_profile,
    pi_explicit,
    pi_quadrature,
    pi_recursive,
    tail_exponent_theory,
    theta,
)
from .verify import CheckResult, ReportDocument, VerifySession

__version__ = "0.1.0"

__all__ = [
    "AggregateResult",
    "BranchingConfig",
    "ChainSummary",
    "CheckResult",
    "ChiSquareResult",
    "ConvergenceReport",
    "DegreeLedger",
    "DistanceReport",
    "EdgeCountDistribution",
    "EmbedSummary",
    "EmbeddingResult",
    "EmpiricalDistribution",
    "ExperimentConfig",
    "FreezeReport",
    "JumpPath",
    "LimitSpectrum",
    "ModelConfig",
    "MomentCurve",
    "ReportDocument",
    "RunResult",
    "ScaledTrajectory",
    "TailFit",
    "TauDiagnostics",
    "VerifySession",
    "deterministic",
    "distribution_distance",
    "embedding_equivalence_test",
    "empirical_distribution",
    "explicit",
    "freeze_detector",
    "geometric",
    "max_degree_check",
    "mix64",
    "moment_profile",
    "parse_config",
    "pi_explicit",
    "pi_quadrature",
    "pi_recursive",
    "replicate",
    "run_chain",
    "run_embedding",
    "simulate_mbp",
    "simulate_mbpi",
    "substream",
    "tail_exponent_theory",
    "tail_fit",
    "tau_diagnostics",
    "theta",
    "trajectory_limit_check",
    "validate_edge_law",
    "zeta_trajectory",
]
