"""The geometric Newton iteration: solve the tangent-space system
Hess s = -grad at the current point, retract, repeat.  ``newton_run`` is
the one driver: each iteration reads the gradient, then takes one update.
The gradient of an objective that declares ``holomorphic = True`` is read by
complex step, and checked against a ``gradient_fd`` read at each run's
first iterate.  Up to intrinsic dimension ``_COMPLEX_HESSIAN_MAX_DIM`` its
Hessian is read by complex step too, with the gradient in one
``derivatives_cs`` batch per iterate (one that the run's error law predicts
to stop it reads ``gradient_cs`` alone first); above it every Hessian is
``hessian_fd``'s.  Any other objective is read by finite differences.
Every read, each Hessian (a :class:`SymmetricOperator` based at p) and the
step's solve are in ``p.frame``.

The method is deliberately pure -- no line search, no damping, no
quasi-Newton reuse -- so its local behavior can be measured as-is.  Two stop
tests guard ``newton_run`` without changing any step it takes: a condition
cap on the tangent Hessian (instead of a silent near-singular solve the solve
raises, and the run records, ``SingularHessian``), and a stall test that ends
a run once its steps are below ``sqrt(eps)`` and the gradient read has
stopped improving (``STALLED``, at the read's noise floor).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .calculus import REFINED_GRADIENT_STEP_FACTOR, SymmetricOperator, derivatives_cs, gradient_cs
from .calculus import _method, gradient_fd, hessian_fd
from .errors import ContractError, EvaluationError, SingularHessianError
from .manifolds import ManifoldPoint, TangentVector, frame_sums, row_dots, scaled_norms, unchecked
from .retractions import RetractionSpec, retract

_RESIDUAL_TOL = 1e-10
_REFINE_THRESHOLD = 1e-8
_GUARD = 1e-6  # the FD read's error: at most 2e-10 (|grad| + |J|) on the shipped objectives
# Stall gate.  Inside the quadratic basin a Newton step of length s lands
# within about s**2 of the critical point, so once a step is at most
# sqrt(eps) the next one could only move rounding-level digits; a gradient
# read that then fails to improve twice running is at its FD noise floor.
_STALL_STEP = float(np.sqrt(np.finfo(float).eps))
# Crossover D* of the complex-step Hessian.  Read with the gradient in one
# batch of d^2 + 2d complex probes, it beat the complex gradient plus the
# 2 d^2 + 1 real FD probes on every sphere family up to d = 14 (median
# 1.06-1.54x, x86_64, one BLAS thread; BENCH_one_probe_batch.json).  At d = 19
# isolated reads put the FD pair at 0.89-1.05x the batch's time, and runs
# without D* took 0.97x the sphere:20 ms/iter under exp, 1.05x under
# projection and 1.42x under perturbed: D* now rests on the perturbed family.
_COMPLEX_HESSIAN_MAX_DIM = 14
# A predicted stop: e_k+1 ~ C e_k^2 puts |g_k+1| near |g_k| (|s_k| / |s_k-1|)^2,
# at most _STOP_MARGIN * tol (multiplied out, as float ** raises OverflowError).
_STOP_MARGIN = 1e-2


def _measure_gradient(objective, spec, p, first: bool, stop) -> tuple[TangentVector, SymmetricOperator | None]:
    """The gradient read at p, and the Hessian at p if it was read too.

    An objective that declares ``holomorphic = True`` is read by complex
    step: up to intrinsic dimension _COMPLEX_HESSIAN_MAX_DIM with the
    Hessian, in one ``derivatives_cs`` batch (given a ``stop`` tol, only if
    ``gradient_cs`` alone misses it), and above it alone.  At a run's first
    iterate (no stop) that read must agree with ``gradient_fd``'s to _GUARD
    (|grad| + |J|), or ``ContractError`` names the objective.  Any other
    objective is read by FD, which near critical points is
    quantization-limited at ~ulp(J)/(2h); a wider-step read resolves finer
    gradients there.  Keep whichever is smaller."""
    if getattr(objective, "holomorphic", False):
        with_hessian = p.manifold.intrinsic_dim <= _COMPLEX_HESSIAN_MAX_DIM
        grad, hess = (gradient_cs(objective, spec, p) if stop or not with_hessian else None), None
        if with_hessian and (grad is None or not grad.norm() <= stop):
            grad, hess = derivatives_cs(objective, spec, p)
        if first:
            fd = gradient_fd(objective, spec, p).coords
            with np.errstate(over="ignore"):
                gap, fd_norm, s = scaled_norms(grad.coords - fd, fd)
            if not gap <= _GUARD * (fd_norm + abs(s * _method(objective, "value")(p))):
                raise ContractError(f"{type(objective).__name__} declares holomorphic = True, but its "
                                    f"complex-step gradient is {gap / s:.3e} from the finite-difference read")
        return grad, hess
    grad = gradient_fd(objective, spec, p)
    if grad.norm() < _REFINE_THRESHOLD:
        refined = gradient_fd(objective, spec, p, step_factor=REFINED_GRADIENT_STEP_FACTOR)
        if refined.norm() < grad.norm():
            return refined, None
    return grad, None


class NewtonStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    SINGULAR_HESSIAN = "singular_hessian"
    STALLED = "stalled"
    EVALUATION_ERROR = "evaluation_error"


@dataclass(frozen=True)
class NewtonConfig:
    retraction: RetractionSpec
    # Gradient-norm stop, the only way to end CONVERGED.  It is absolute, so a
    # run whose read floors above it (an FD read, or a complex read of a J
    # scaled past about 1e4) ends STALLED (IterationTrace lists every status).
    tol: float = 1e-12
    max_iter: int = 50
    cond_cap: float = 1e12

    def __post_init__(self):
        if not self.tol > 0:  # NaN fails too
            raise ContractError("tol must be positive")
        if self.max_iter < 1:
            raise ContractError("max_iter must be at least 1")
        if not self.cond_cap > 1:  # a NaN cap would never trip the guard
            raise ContractError("cond_cap must exceed 1")


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Full history of a Newton run: every iterate, its gradient norm, and the
    tangent step lengths between consecutive iterates.

    ``status`` says why the run ended: CONVERGED when the last gradient norm
    is at most ``tol``; STALLED when the last step was at most ``sqrt(eps)``
    and neither of the last two gradient norms went below the earlier
    minimum (the read sits at its noise floor above ``tol``: an FD read, or
    a complex read of a J scaled past about 1e4); MAX_ITER when the budget
    ran out; SINGULAR_HESSIAN when the conditioning guard tripped;
    EVALUATION_ERROR when a probe of the objective was not finite (the last
    gradient norm is NaN if its read failed, which for a complex read up to
    the Hessian crossover includes the Hessian probes read with it unless a
    predicted stop's ``gradient_cs`` met ``tol``, or at a complex-read first
    iterate if its FD read did).  Only CONVERGED means ``tol`` was met."""

    points: tuple[ManifoldPoint, ...]
    grad_norms: tuple[float, ...]
    step_norms: tuple[float, ...]
    status: NewtonStatus

    def __post_init__(self):
        if len(self.points) != len(self.step_norms) + 1:
            raise ContractError("trace needs exactly one more point than steps")
        if len(self.grad_norms) != len(self.points):
            raise ContractError("trace needs one gradient norm per point")
        if any(g < 0 for g in self.grad_norms):
            raise ContractError("gradient norms must be nonnegative")

    @property
    def iterations(self) -> int:
        return len(self.step_norms)

    @property
    def final_point(self) -> ManifoldPoint:
        return self.points[-1]


def solve_tangent_system(
    operator: SymmetricOperator,
    gradient: TangentVector,
    cond_cap: float = 1e12,
) -> TangentVector:
    """Solve Hess s = -grad in the coordinates of the operator base's frame
    and map s back to an ambient tangent vector.

    Raises ``SingularHessianError`` when the estimated condition number
    exceeds ``cond_cap`` (the invertibility assumption fails numerically) or
    when the solve leaves a residual above 1e-10 * (1 + |grad|).
    ``ContractError`` unless ``cond_cap`` exceeds 1, as in ``NewtonConfig``,
    if the gradient is based at another point, or if the step is not finite.
    """
    if not cond_cap > 1:  # a NaN cap would never trip the guard
        raise ContractError("cond_cap must exceed 1")
    base = operator.base
    if gradient.base is not base and not np.array_equal(gradient.base.coords, base.coords):
        raise ContractError("tangent vector is based at a different point")
    rhs = -row_dots(base.frame, gradient.coords)
    matrix = operator.matrix
    singular = np.linalg.svd(matrix, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):  # np.linalg.cond; NaN (zero matrix) reads inf
        cond = float(singular[0] / singular[-1])
    cond = math.inf if math.isnan(cond) else cond
    if not math.isfinite(cond) or cond > cond_cap:
        raise SingularHessianError(f"condition estimate {cond:.3e} exceeds cap {cond_cap:.3e}")
    try:
        coeffs = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularHessianError("tangent-space solve failed") from exc
    gap = matrix @ coeffs - rhs
    with np.errstate(over="ignore", invalid="ignore"):  # a norm or a step past the float range is handled below
        residual, rhs_norm, s = scaled_norms(gap, rhs)
        coords = frame_sums(coeffs, base.frame)
    if residual > _RESIDUAL_TOL * (s + rhs_norm):
        raise SingularHessianError(f"solve residual {residual / s:.3e} too large")
    if not np.isfinite(coords).all():
        raise ContractError("tangent vector from these coefficients is not finite")
    return unchecked(TangentVector, base, coords)


def newton_run(objective, config: NewtonConfig, p0: ManifoldPoint) -> IterationTrace:
    """Pure Newton updates x <- R_x(-Hess^-1 grad) from p0 until the gradient
    norm drops below config.tol, the gradient read stalls at its noise floor,
    the budget runs out, the conditioning guard trips, or a probe is not
    finite.  Gradient and Hessian are recomputed fresh at every iterate."""
    spec = config.retraction
    points = [p0]
    grad_norms: list[float] = []
    step_norms: list[float] = []
    status = NewtonStatus.MAX_ITER

    current, stop = p0, None
    try:
        for _ in range(config.max_iter + 1):
            grad, hess = _measure_gradient(objective, spec, current, not grad_norms, stop)
            grad_norms.append(grad.norm())
            if grad_norms[-1] <= config.tol:
                status = NewtonStatus.CONVERGED
                break
            if (
                len(step_norms) >= 2
                and step_norms[-1] <= _STALL_STEP
                and min(grad_norms[-2:]) >= min(grad_norms[:-2])
            ):
                status = NewtonStatus.STALLED
                break
            if len(step_norms) == config.max_iter:
                status = NewtonStatus.MAX_ITER
                break
            try:
                if hess is None:
                    hess = hessian_fd(objective, spec, current)
                step = solve_tangent_system(hess, grad, cond_cap=config.cond_cap)
            except SingularHessianError:
                status = NewtonStatus.SINGULAR_HESSIAN
                break
            current = retract(spec, step)
            points.append(current)
            step_norms.append(step.norm())
            ratio = step_norms[-1] / step_norms[-2] if len(step_norms) >= 2 and step_norms[-2] > 0 else math.nan
            stop = config.tol if grad_norms[-1] * ratio * ratio <= _STOP_MARGIN * config.tol else None
    except EvaluationError:  # the trace ends at the last point reached
        grad_norms += [math.nan] * (len(points) - len(grad_norms))  # its gradient read failed
        status = NewtonStatus.EVALUATION_ERROR

    return IterationTrace(
        points=tuple(points),
        grad_norms=tuple(grad_norms),
        step_norms=tuple(step_norms),
        status=status,
    )
