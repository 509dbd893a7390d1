"""Geometric Newton iteration on embedded manifolds, with empirical
verifiers for retraction order, gradient/Hessian extraction, and the
quadratic convergence rate."""

from .calculus import (
    SymmetricOperator,
    gradient_cs,
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
    TangentVector,
    hat,
    rotation_exp,
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
    critical_residual_rows,
    distance_deviation_rows,
    fit_loglog,
    fit_rows,
    rate_from_errors,
    retraction_order_rows,
    taylor_remainder_rows,
)
from .retractions import (
    CAYLEY,
    EXPONENTIAL,
    FAMILIES,
    PERTURBED,
    PROJECTION,
    RetractionSpec,
    inverse_retract,
    inverse_retract_many,
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
