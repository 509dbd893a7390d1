"""Finite-difference extraction of the retraction-induced gradient and
Hessian.

The gradient and Hessian at p are read off the second-order expansion of the
pulled-back objective t -> J(R_p(t e_i)) in an orthonormal tangent basis:
central differences give the first-order coefficients, a four-point stencil
gives the second-order ones, returned as a :class:`TangentVector` at p and a
:class:`SymmetricOperator`.  Away from critical points the Hessian obtained
this way depends on the retraction family unless the family has order >= 2.

Each stencil is evaluated as one batch: the probe directions form a
(probes x ambient) array that :func:`retract_many` checks (a retraction
not defined on p's manifold raises before any probe) and maps to the
manifold, and the objective's optional ``values(p, points)`` evaluates,
one call each (an objective with only ``value(p)`` is evaluated row by
row).  The batched kernels round as the single-probe path (``retract``
then ``value``) does, so every probe value and every extracted derivative
is the same bit for bit.
Each Hessian probe is the sum of two rows of [hE; -hE] (E the frame) from an
index plan cached per dimension.  The two mixed probes of a diagonal entry
both sit at R_p(0), read once, so a Hessian costs 2 d^2 + 1 probes.

Step sizes balance truncation against rounding: eps^(1/3) for first
differences, eps^(1/4) for second differences.  The steps are deliberately
independent of the objective's magnitude: probing cJ at the same points as J
makes the extracted derivatives exactly c-homogeneous, which the Newton step
relies on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, EvaluationError
from .manifolds import ManifoldPoint, TangentBasis, TangentVector, unchecked
from .retractions import RetractionSpec, retract, retract_many

_EPS = float(np.finfo(float).eps)
GRADIENT_STEP_FACTOR = _EPS ** (1.0 / 3.0)  # ~6.1e-6
HESSIAN_STEP_FACTOR = _EPS ** 0.25  # ~1.2e-4

# Central differences quantize to ulp(J)/(2h); the wider step trades truncation
# for resolution and is what the Newton driver switches to near critical points,
# where the cubic term of the pullback vanishes and truncation is harmless.
REFINED_GRADIENT_STEP_FACTOR = _EPS ** 0.2  # ~7.4e-4


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
    if not np.isfinite(values).all():
        raise EvaluationError("objective returned a non-finite value during a probe")


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
        out = np.array([objective.value(unchecked(ManifoldPoint, manifold, row)) for row in points], dtype=float)
    _check_finite(out)
    return out


def gradient_fd(
    objective,
    spec: RetractionSpec,
    p: ManifoldPoint,
    basis: TangentBasis | None = None,
    step_factor: float = GRADIENT_STEP_FACTOR,
) -> TangentVector:
    """Central-difference gradient of J o R_p at 0, with step ``step_factor``.

    Component i is [J(R_p(h e_i)) - J(R_p(-h e_i))] / (2h) over the basis
    vectors; the result is assembled as an ambient tangent vector and is
    independent of the basis choice up to finite-difference error.
    """
    if basis is None:
        basis = p.manifold.tangent_basis(p)
    h = step_factor
    frame = basis.frame
    dim = len(frame)
    values = _probe_many(objective, spec, p, h * np.concatenate([frame, -frame]))
    coeffs = (values[:dim] - values[dim:]) / (2.0 * h)
    return basis.from_coordinates(coeffs)


@functools.cache
def _stencil_plan(dim: int) -> tuple[np.ndarray, ...]:
    """Read-only index plan of the Hessian stencil in dimension ``dim``:
    ``first`` and ``second`` pick each probe's two rows of [hE; -hE], and
    ``upper`` and ``lower`` are the flat positions of H_ij and H_ji, i < j."""
    rows, cols = np.triu_indices(dim, k=1)
    diag = np.arange(dim)
    first = np.concatenate([rows, rows, rows + dim, rows + dim, diag, diag + dim])
    second = np.concatenate([cols, cols + dim, cols, cols + dim, diag, diag + dim])
    plan = (first, second, rows * dim + cols, cols * dim + rows)
    for index in plan:
        index.setflags(write=False)
    return plan


def hessian_fd(
    objective,
    spec: RetractionSpec,
    p: ManifoldPoint,
    basis: TangentBasis | None = None,
) -> SymmetricOperator:
    """Four-point-stencil Hessian of J o R_p at 0, exactly symmetric: one array
    holds H_ij and H_ji.

    H_ij = [J(R(h e_i + h e_j)) - J(R(h e_i - h e_j))
            - J(R(-h e_i + h e_j)) + J(R(-h e_i - h e_j))] / (4 h^2)

    For i = j both middle probes are J(R_p(0)), read once, so a Hessian
    costs 2 d^2 + 1 probes in dimension d.  Each probe is the sum of two rows
    of [hE; -hE] (E the frame) picked by ``_stencil_plan``: adding a negated
    row rounds as subtracting it does, down to signed zeros.
    """
    manifold = p.manifold
    if basis is None:
        basis = manifold.tangent_basis(p)
    h = HESSIAN_STEP_FACTOR
    frame = basis.frame
    dim = len(frame)
    first, second, upper, lower = _stencil_plan(dim)
    signed = h * np.concatenate([frame, -frame])
    values = _probe_many(objective, spec, p, signed[first] + signed[second])
    centre = objective.value(retract(spec, unchecked(TangentVector, p, np.zeros(manifold.ambient_dim))))
    _check_finite(centre)
    pp, pm, mp, mm = values[: -2 * dim].reshape(4, -1)
    diag_pp, diag_mm = values[-2 * dim:].reshape(2, dim)
    out = np.empty(dim * dim)
    out[upper] = out[lower] = (pp - pm - mp + mm) / (4.0 * h * h)
    out[:: dim + 1] = (diag_pp - centre - centre + diag_mm) / (4.0 * h * h)
    return SymmetricOperator(base=p, basis=basis, matrix=out.reshape(dim, dim))


def taylor_remainder(
    objective,
    spec: RetractionSpec,
    p: ManifoldPoint,
    v: TangentVector,
    gradient: TangentVector | None = None,
    hessian: SymmetricOperator | None = None,
) -> float:
    """|J(R_p(v)) - J(p) - <v, grad> - 1/2 <v, Hess v>|.

    The gradient and Hessian may be passed in so a sweep over many v reuses
    one extraction; they must then have been computed at p with this spec.
    """
    if v.base is not p and not np.array_equal(v.base.coords, p.coords):
        raise ContractError("tangent vector is based at a different point")
    if gradient is None:
        gradient = gradient_fd(objective, spec, p)
    if hessian is None:
        hessian = hessian_fd(objective, spec, p)
    value = objective.value(retract(spec, v))
    _check_finite(value)
    base_value = objective.value(p)
    linear = float(np.dot(v.coords, gradient.coords))
    quadratic = 0.5 * float(np.dot(v.coords, hessian.apply(v).coords))
    return abs(value - base_value - linear - quadratic)
