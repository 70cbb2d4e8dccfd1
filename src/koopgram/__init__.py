"""Koopman-lifted balanced truncation with certified H-infinity error bounds.

The toolkit factorizes finite-gain nonlinear control systems (including
non-affine control inputs) into a pseudo-affine lifted realization through
a norm-preserving SVD-like decomposition, balances and truncates that
realization, computes a-priori reduction error certificates, and validates
the certificates empirically by simulating the full and reduced systems.

Typical entry points: :func:`koopgram.pipeline.run_pipeline` for the whole
workflow, or the stage modules (`gsvd`, `koopman`, `balance`, `certify`,
`harness`) for the individual steps.
"""

from .balance import (
    BalancedNonlinear,
    BalancedRealization,
    MinimalityError,
    ReducedRealization,
    balance,
    balanced_nonlinear,
    factor_error,
    gramians,
    truncate,
)
from .certify import (
    ErrorCertificate,
    FeedbackDecomposition,
    build_certificate,
    control_truncation_gain,
    feedback_decomposition,
    feedback_removal_gap,
    input_to_state_norm,
    is_control_affine,
    output_embedding_gap,
    truncation_error_bound,
)
from .expr import builtin_systems, compile_expression, get_builtin, system_from_spec
from .gsvd import (
    GainProfile,
    GsvdFactor,
    SlackViolationError,
    decompose,
    estimate_gains,
)
from .harness import (
    ControlSystem,
    GainEstimate,
    Signal,
    Trajectories,
    estimate_gap,
    input_ensemble,
    simulate_ensemble,
)
from .koopman import (
    Dictionary,
    KoopmanModel,
    TrajectoryDataset,
    build_dictionary,
    collect_trajectories,
    fit_koopman,
    lifted_control_term,
)
from .linalg import (
    LtiSystem,
    SpectrumError,
    StiffnessError,
    hinf_norm,
    integrate_ode,
    pinv,
    solve_lyapunov,
)
from .pipeline import PipelineConfig, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "BalancedNonlinear",
    "BalancedRealization",
    "ControlSystem",
    "Dictionary",
    "ErrorCertificate",
    "FeedbackDecomposition",
    "GainEstimate",
    "GainProfile",
    "GsvdFactor",
    "KoopmanModel",
    "LtiSystem",
    "MinimalityError",
    "PipelineConfig",
    "ReducedRealization",
    "Signal",
    "SlackViolationError",
    "SpectrumError",
    "StiffnessError",
    "TrajectoryDataset",
    "Trajectories",
    "balance",
    "balanced_nonlinear",
    "build_certificate",
    "build_dictionary",
    "builtin_systems",
    "collect_trajectories",
    "compile_expression",
    "control_truncation_gain",
    "decompose",
    "estimate_gains",
    "estimate_gap",
    "factor_error",
    "feedback_decomposition",
    "feedback_removal_gap",
    "fit_koopman",
    "get_builtin",
    "gramians",
    "hinf_norm",
    "input_ensemble",
    "input_to_state_norm",
    "integrate_ode",
    "is_control_affine",
    "lifted_control_term",
    "output_embedding_gap",
    "pinv",
    "run_pipeline",
    "simulate_ensemble",
    "solve_lyapunov",
    "system_from_spec",
    "truncate",
    "truncation_error_bound",
]
