"""Tangent-space observers for linear time-varying systems.

The package estimates the Lyapunov spectrum of A(t) by the discrete QR
method, checks directional detectability to pick an output-injection gain
acting on the dominant tangent frame, certifies bounded-input bounded-
state behavior of the remaining error, tests strong observability with
respect to an unknown input, and removes the residual error in finite
time through a bank of sliding-mode differentiators plus an algebraic
reconstruction of the error state.
"""

from .bibs import (
    GeneralCertificate,
    ScalarCertificate,
    TriangularForm,
    general_bibs_certificate,
    scalar_bibs_certificate,
    triangularize,
    triangularize_error_system,
)
from .cascade import CascadeResult, CascadeRun, run_cascade, run_tso
from .errors import ExprError, NumericalError, ScenarioError, StepPreconditionError
from .expr import Expr, MatrixExpr, parse
from .hosm import DEFAULT_GAINS, BankRun, run_bank
from .integrators import (
    StepConfig,
    joint_rk4_step,
    rk4_step,
    skew_rule,
)
from .linalg import (
    mgs_qr,
    numerical_rank,
    orthogonal_projector_complement,
    pinv,
)
from .lyapunov import (
    DirectionRegularity,
    RegularityReport,
    SpectrumEstimate,
    estimate_spectrum,
    nonstable_dimension,
    regularity_report,
)
from .observer import (
    DetectabilityReport,
    DirectionDetectability,
    FrameTrack,
    ObserverConfig,
    detectability_report,
    frame_track,
    min_gain_suggestion,
)
from .strong_obs import (
    ObservabilityStack,
    ReconstructionMap,
    SoVerdict,
    build_stack,
    error_system_so_test,
    strong_observability_test,
)
from .system import LtvSystem

__version__ = "0.1.0"

__all__ = [
    "BankRun",
    "CascadeResult",
    "CascadeRun",
    "DEFAULT_GAINS",
    "DetectabilityReport",
    "DirectionDetectability",
    "DirectionRegularity",
    "Expr",
    "ExprError",
    "FrameTrack",
    "GeneralCertificate",
    "LtvSystem",
    "MatrixExpr",
    "NumericalError",
    "ObservabilityStack",
    "ObserverConfig",
    "ReconstructionMap",
    "RegularityReport",
    "ScalarCertificate",
    "ScenarioError",
    "SoVerdict",
    "SpectrumEstimate",
    "StepConfig",
    "StepPreconditionError",
    "TriangularForm",
    "build_stack",
    "detectability_report",
    "error_system_so_test",
    "estimate_spectrum",
    "frame_track",
    "general_bibs_certificate",
    "joint_rk4_step",
    "mgs_qr",
    "min_gain_suggestion",
    "nonstable_dimension",
    "numerical_rank",
    "orthogonal_projector_complement",
    "parse",
    "pinv",
    "regularity_report",
    "rk4_step",
    "run_bank",
    "run_cascade",
    "run_tso",
    "scalar_bibs_certificate",
    "skew_rule",
    "strong_observability_test",
    "triangularize",
    "triangularize_error_system",
    "__version__",
]
