"""Finite-difference extraction of the retraction-induced gradient and
Hessian.

The gradient and Hessian at p are read off the second-order expansion of the
pulled-back objective t -> J(R_p(t e_i)) in an orthonormal tangent basis:
central differences give the first-order coefficients, a four-point stencil
gives the second-order ones.  Away from critical points the Hessian obtained
this way depends on the retraction family unless the family has order >= 2.

Each stencil is evaluated as one batch: the probe directions form a
(probes x ambient) array, :func:`retract_many` maps it to the manifold in one
call, and the objective's optional ``values(p, points)`` method evaluates all
rows in one call.  An objective with only ``value(p)`` is evaluated row by
row.  The batched kernels round exactly as the single-probe path
(``retract`` then ``value``) does, so every probe value, and with it every
extracted derivative, is the same bit for bit.  On the Hessian diagonal the
two mixed probes both sit at R_p(0); that value is read once.

Step sizes balance truncation against rounding: eps^(1/3) for first
differences, eps^(1/4) for second differences.  The steps are deliberately
independent of the objective's magnitude: probing cJ at the same points as J
makes the extracted derivatives exactly c-homogeneous, which the Newton step
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, EvaluationError
from .manifolds import ManifoldPoint, TangentBasis, TangentVector
from .retractions import RetractionSpec, retract, retract_many

_EPS = float(np.finfo(float).eps)
GRADIENT_STEP_FACTOR = _EPS ** (1.0 / 3.0)  # ~6.1e-6
HESSIAN_STEP_FACTOR = _EPS ** 0.25  # ~1.2e-4

# Central differences quantize to ulp(J)/(2h); the wider step trades truncation
# for resolution and is what the Newton driver switches to near critical points,
# where the cubic term of the pullback vanishes and truncation is harmless.
REFINED_GRADIENT_STEP_FACTOR = _EPS ** 0.2  # ~7.4e-4


@dataclass(frozen=True, eq=False)
class GradientResult:
    """Finite-difference gradient with the step size that produced it."""

    vector: TangentVector
    step: float


@dataclass(frozen=True, eq=False)
class SymmetricOperator:
    """Hessian as a symmetric matrix in an orthonormal tangent basis."""

    base: ManifoldPoint
    basis: TangentBasis
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        dim = len(self.basis)
        if not np.array_equal(self.base.coords, self.basis.base.coords):
            raise ContractError("operator base point differs from its basis base point")
        if mat.shape != (dim, dim):
            raise ContractError("operator matrix does not match the basis dimension")
        if not np.array_equal(mat, mat.T):
            raise ContractError("operator matrix must be exactly symmetric")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def apply(self, v: TangentVector) -> TangentVector:
        """Operator action: coordinates in the basis, multiply, reassemble."""
        coeffs = self.basis.coordinates(v)
        return self.basis.from_coordinates(self.matrix @ coeffs)


def _check_finite(values) -> None:
    if not np.all(np.isfinite(values)):
        raise EvaluationError("objective returned a non-finite value during a probe")


def _probe(objective, spec: RetractionSpec, p: ManifoldPoint, coords: np.ndarray) -> float:
    value = objective.value(retract(spec, TangentVector(p, coords)))
    _check_finite(value)
    return value


def _probe_many(objective, spec: RetractionSpec, p: ManifoldPoint, stencil: np.ndarray) -> np.ndarray:
    """J(R_p(v)) for every row v of the stencil, through ``values`` when the
    objective has it and through ``value`` row by row otherwise."""
    points = retract_many(spec, p, stencil)
    batched = getattr(objective, "values", None)
    if batched is not None:
        out = np.asarray(batched(p, points), dtype=float)
        if out.shape != (len(points),):
            raise ContractError("objective values() must return one value per point")
    else:
        manifold = p.manifold
        out = np.array([objective.value(ManifoldPoint(manifold, row)) for row in points], dtype=float)
    _check_finite(out)
    return out


def gradient_fd(
    objective,
    spec: RetractionSpec,
    p: ManifoldPoint,
    basis: TangentBasis | None = None,
    step_factor: float = GRADIENT_STEP_FACTOR,
) -> GradientResult:
    """Central-difference gradient of J o R_p at 0.

    Component i is [J(R_p(h e_i)) - J(R_p(-h e_i))] / (2h) over the basis
    vectors; the result is assembled as an ambient tangent vector and is
    independent of the basis choice up to finite-difference error.
    """
    manifold = p.manifold
    spec.validate_for(manifold)
    if basis is None:
        basis = manifold.tangent_basis(p)
    h = step_factor
    frame = basis.frame
    dim = len(frame)
    values = _probe_many(objective, spec, p, np.concatenate([h * frame, -h * frame]))
    coeffs = (values[:dim] - values[dim:]) / (2.0 * h)
    return GradientResult(vector=basis.from_coordinates(coeffs), step=h)


def hessian_fd(
    objective,
    spec: RetractionSpec,
    p: ManifoldPoint,
    basis: TangentBasis | None = None,
) -> SymmetricOperator:
    """Four-point-stencil Hessian of J o R_p at 0, symmetrized exactly.

    H_ij = [J(R(h e_i + h e_j)) - J(R(h e_i - h e_j))
            - J(R(-h e_i + h e_j)) + J(R(-h e_i - h e_j))] / (4 h^2)

    For i = j both middle probes are J(R_p(0)), read once, so a Hessian
    costs 2 d^2 + 1 probes in dimension d.
    """
    manifold = p.manifold
    spec.validate_for(manifold)
    if basis is None:
        basis = manifold.tangent_basis(p)
    h = HESSIAN_STEP_FACTOR
    frame = basis.frame
    dim = len(frame)
    plus, minus = h * frame, -h * frame
    rows, cols = np.triu_indices(dim, k=1)
    pairs = len(rows)
    stencil = np.concatenate([
        plus[rows] + plus[cols],
        plus[rows] - plus[cols],
        minus[rows] + plus[cols],
        minus[rows] - plus[cols],
        plus + plus,
        minus - plus,
    ])
    values = _probe_many(objective, spec, p, stencil)
    pp, pm, mp, mm = values[: 4 * pairs].reshape(4, pairs)
    centre = _probe(objective, spec, p, np.zeros(manifold.ambient_dim))
    diag_pp, diag_mm = values[4 * pairs:].reshape(2, dim)
    out = np.empty((dim, dim))
    out[rows, cols] = out[cols, rows] = (pp - pm - mp + mm) / (4.0 * h * h)
    out[np.diag_indices(dim)] = (diag_pp - centre - centre + diag_mm) / (4.0 * h * h)
    out = 0.5 * (out + out.T)
    return SymmetricOperator(base=p, basis=basis, matrix=out)


def taylor_remainder(
    objective,
    spec: RetractionSpec,
    p: ManifoldPoint,
    v: TangentVector,
    gradient: GradientResult | None = None,
    hessian: SymmetricOperator | None = None,
) -> float:
    """|J(R_p(v)) - J(p) - <v, grad> - 1/2 <v, Hess v>|.

    The gradient and Hessian may be passed in so a sweep over many v reuses
    one extraction; they must then have been computed at p with this spec.
    """
    if gradient is None:
        gradient = gradient_fd(objective, spec, p)
    if hessian is None:
        hessian = hessian_fd(objective, spec, p)
    value = _probe(objective, spec, p, v.coords)
    base_value = objective.value(p)
    linear = float(np.dot(v.coords, gradient.vector.coords))
    quadratic = 0.5 * float(np.dot(v.coords, hessian.apply(v).coords))
    return abs(value - base_value - linear - quadratic)
