"""Geometric Newton iteration on embedded manifolds, with empirical
verifiers for retraction order, gradient/Hessian extraction, and the
quadratic convergence rate."""

from .calculus import (
    SymmetricOperator,
    gradient_fd,
    hessian_fd,
    taylor_remainder,
)
from .errors import (
    ConfigurationError,
    ContractError,
    CutLocusError,
    EvaluationError,
    GeonewtonError,
    InsufficientDataError,
    InversionFailureError,
    PreconditionError,
    SingularHessianError,
)
from .manifolds import (
    Manifold,
    ManifoldPoint,
    Rotations3,
    Sphere,
    TangentBasis,
    TangentVector,
    hat,
    rotation_about_z,
    rotation_exp,
    rotation_log,
    vee,
)
from .newton import (
    IterationTrace,
    NewtonConfig,
    NewtonStatus,
    newton_run,
    solve_tangent_system,
)
from .objectives import Brockett, ProcrustesTrace, Rayleigh, TiltedRayleigh
from .rates import (
    DEFAULT_NOISE_FLOOR,
    DEFAULT_SCALES,
    RateReport,
    ScaleSweep,
    SlopeEstimate,
    convergence_rate,
    critical_residual_rows,
    critical_residual_slope,
    distance_deviation_rows,
    distance_deviation_slope,
    estimate_retraction_order,
    fit_loglog,
    fit_rows,
    rate_from_errors,
    retraction_order_rows,
    taylor_remainder_rows,
    taylor_remainder_slope,
)
from .retractions import (
    CAYLEY,
    EXPONENTIAL,
    FAMILIES,
    PERTURBED,
    PROJECTION,
    RetractionSpec,
    inverse_retract,
    perturbation_direction,
    retract,
    retract_many,
)
from .sampling import (
    make_sweep,
    random_point,
    random_tangent,
    rayleigh_top_eigenvector,
    rng_for,
    seeded_instance,
)

__version__ = "0.1.0"
