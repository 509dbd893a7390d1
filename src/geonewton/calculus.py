"""Finite-difference and complex-step extraction of the retraction-induced
gradient and Hessian.

The gradient and Hessian at p are read off the second-order expansion of the
pulled-back objective t -> J(R_p(t e_i)) over the rows e_i of p's cached
orthonormal frame ``p.frame`` (no caller picks a basis): central differences
give the first-order coefficients, a four-point stencil the second-order
ones, returned as a :class:`TangentVector` at p and a :class:`SymmetricOperator`
based at p (its matrix in ``p.frame``), applied by :func:`apply_many`.  Off
critical points the Hessian depends on the retraction family unless its
order is >= 2.

Each stencil is evaluated as one batch: the probe directions form a
(probes x ambient) array of sums of ``p.frame``'s rows, tangent at the
checked point p, that ``_retract_rows`` maps to the manifold unchecked (a
retraction not defined on p's manifold raises before any probe), and the
objective's ``values(p, points)`` evaluates, one call each.  Every objective
needs ``values`` (one without it raises ``ContractError``): there is no
row-by-row ``value`` path
(:mod:`geonewton.objectives` shows the two-line adapter for an objective
that has only ``value``).  The batched kernels
round as the single-probe path (``retract`` then a one-row ``values``)
does, so every probe value and every extracted derivative is the same bit
for bit.
Each Hessian probe is the sum of two rows of [hE; -hE; 0] (E the frame)
from an index plan cached per dimension.  The two mixed probes of a
diagonal entry both sit at R_p(0), read once, so a Hessian costs 2 d^2 + 1
probes; R_p(0) is the plan's last probe, the zero row taken twice, and the
plan's four (d x d) gathers assemble the matrix from the stencil's values.
One assembly serves one point and many: its arrays may carry leading stack
axes (one entry per point) that :func:`gradient_fd` and :func:`hessian_fd`
leave out and :func:`derivatives_fd` uses to probe k points in one batch
(one per group of points at large dimension): the stencil is retracted over
a :class:`PointRows` stack, and ``values`` gets the first point as its p,
so an objective is only ever handed a :class:`ManifoldPoint`.

Step sizes balance truncation against rounding: eps^(1/3) for first
differences, eps^(1/4) for second differences.  The steps are deliberately
independent of the objective's magnitude: probing cJ at the same points as J
makes the extracted derivatives exactly c-homogeneous, which the Newton step
relies on.  :func:`gradient_cs` reads the gradient by complex step: its d
probes R_p(i h e_i) subtract nothing, so it has no rounding floor.
:func:`derivatives_cs` reads it with the Hessian in one batch of d^2 + 2d
complex probes, each Hessian entry a difference of two complex-step
gradient components at +-delta e_j: about 1e-10 relative where the FD
Hessian reaches about 1e-7, and exactly c-homogeneous too.  Its index plan,
cached per dimension, gathers the probe rows and both triangles of H.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, EvaluationError
from .manifolds import ManifoldPoint, PointRows, TangentVector, _real_array, frame_sums, row_dots, unchecked
from .retractions import RetractionSpec, _retract_rows
from .retractions import retract  # noqa: F401  not called here; the benchmark tracer checks this binding

_EPS = float(np.finfo(float).eps)
GRADIENT_STEP_FACTOR = _EPS ** (1.0 / 3.0)  # ~6.1e-6
HESSIAN_STEP_FACTOR = _EPS ** 0.25  # ~1.2e-4
COMPLEX_STEP = 1e-30  # gradient_cs's h: h^2 vanishes against 1 in every real part

# Central differences quantize to ulp(J)/(2h); the wider step trades truncation
# for resolution and is what the Newton driver switches to near critical points,
# where the cubic term of the pullback vanishes and truncation is harmless.
REFINED_GRADIENT_STEP_FACTOR = _EPS ** 0.2  # ~7.4e-4

# Most stencil entries (rows x ambient) derivatives_fd probes over several
# points at once: past it the stacked base rows cost more than the calls they
# save (lemma1 on sphere:20 ran 1.2x slower in one batch than point by point).
_BATCH_FLOATS = 2 ** 14


@dataclass(frozen=True, eq=False)
class SymmetricOperator:
    """Hessian at ``base`` as a symmetric matrix in ``base.frame``; ``ContractError``
    unless the matrix is real, d x d for the base's intrinsic dimension d,
    finite and exactly symmetric."""

    base: ManifoldPoint
    matrix: np.ndarray

    def __post_init__(self):
        mat = _real_array(self.matrix)
        dim = self.base.manifold.intrinsic_dim
        if mat.shape != (dim, dim):
            raise ContractError("operator matrix does not match the tangent dimension")
        if not np.isfinite(mat).all():
            raise ContractError("operator matrix is not finite")
        if not np.array_equal(mat, mat.T):
            raise ContractError("operator matrix must be exactly symmetric")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def apply_many(matrices: np.ndarray, frames: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Operator i (a matrix in a frame; one may serve every row) applied to
    row i of ``vectors``: coordinates in the frame, multiply, reassemble."""
    coeffs = row_dots(frames, vectors[:, None])
    return frame_sums((matrices @ coeffs[..., None])[..., 0], frames)


def _method(objective, name: str):
    """The objective's method ``name``; ``ContractError`` naming it if there is none."""
    method = getattr(objective, name, None)
    if method is None:
        raise ContractError(f"{type(objective).__name__} objective has no {name} method")
    return method


def _evaluate(objective, p: ManifoldPoint, points: np.ndarray, dtype=float) -> np.ndarray:
    """J at every point row as ``dtype``, from one ``values`` call; each must
    be finite."""
    out = np.asarray(_method(objective, "values")(p, points), dtype=dtype)
    if out.shape != (len(points),):
        raise ContractError("objective values() must return one value per point")
    if not np.isfinite(out).all():
        raise EvaluationError("objective returned a non-finite value during a probe")
    return out


def _central_rows(frames: np.ndarray, h: float) -> np.ndarray:
    """[hE; -hE] for each (d x ambient) frame E."""
    return h * np.concatenate([frames, -frames], axis=-2)


def _hessian_rows(frames: np.ndarray) -> np.ndarray:
    """Each frame's Hessian stencil, centre last: the plan's sums of two rows
    of [hE; -hE; 0]."""
    first, second = _stencil_plan(frames.shape[-2])[:2]
    zero = np.zeros(frames.shape[:-2] + (1, frames.shape[-1]))
    signed = np.concatenate([_central_rows(frames, HESSIAN_STEP_FACTOR), zero], axis=-2)
    return signed.take(first, axis=-2) + signed.take(second, axis=-2)


def _gradients(values: np.ndarray, frames: np.ndarray, h: float) -> np.ndarray:
    dim = frames.shape[-2]
    return frame_sums((values[..., :dim] - values[..., dim:]) / (2.0 * h), frames)


def _hessians(values: np.ndarray, dim: int) -> np.ndarray:
    """Hessian matrices from Hessian-stencil values, exactly symmetric: H_ij
    and H_ji gather the same four values."""
    _, _, pp, pm, mp, mm = _stencil_plan(dim)
    h = HESSIAN_STEP_FACTOR
    # take() returns C-ordered stacks: a matmul over them rounds by memory layout
    pp, pm, mp, mm = (values.take(index, axis=-1) for index in (pp, pm, mp, mm))
    return (pp - pm - mp + mm) / (4.0 * h * h)


def gradient_fd(
    objective, spec: RetractionSpec, p: ManifoldPoint, step_factor: float = GRADIENT_STEP_FACTOR
) -> TangentVector:
    """Central-difference gradient of J o R_p at 0, with step ``step_factor``.

    Component i is [J(R_p(h e_i)) - J(R_p(-h e_i))] / (2h) over the rows e_i
    of ``p.frame``; the result is assembled as an ambient tangent vector.
    """
    values = _evaluate(objective, p, _retract_rows(spec, p, _central_rows(p.frame, step_factor)))
    return unchecked(TangentVector, p, _gradients(values, p.frame, step_factor))


def gradient_cs(objective, spec: RetractionSpec, p: ManifoldPoint) -> TangentVector:
    """Complex-step gradient of J o R_p at 0 in d probes: component i is
    Im J(R_p(i h e_i)) / h over the rows e_i of ``p.frame``.  It subtracts
    nothing, so it has no rounding floor, but it is right only where
    J o R_p is holomorphic in v."""
    values = _evaluate(objective, p, _retract_rows(spec, p, (1j * COMPLEX_STEP) * p.frame), complex)
    return unchecked(TangentVector, p, frame_sums(values.imag / COMPLEX_STEP, p.frame))


def derivatives_cs(objective, spec: RetractionSpec, p: ManifoldPoint) -> tuple[TangentVector, SymmetricOperator]:
    """:func:`gradient_cs` and the complex-step Hessian of J o R_p at 0 from
    one batch of d^2 + 2d probes, right only where J o R_p is holomorphic in v.

    The first d rows are gradient_cs's i h e_i, so the gradient is its bit
    for bit.  For i <= j the rows i h e_i +- delta e_j (delta the default FD
    gradient step) give H_ij = Im[J(R(i h e_i + delta e_j)) - J(R(i h e_i -
    delta e_j))] / (2 h delta), with error O(delta^2); H_ji is the same
    value, so the matrix is exactly symmetric.  The matrix is in ``p.frame``."""
    frame = p.frame
    dim = len(frame)
    first, second, mirror = _complex_plan(dim)
    imaginary = (1j * COMPLEX_STEP) * frame
    signed = np.concatenate([imaginary.real, GRADIENT_STEP_FACTOR * frame, -GRADIENT_STEP_FACTOR * frame])
    stencil = np.empty((len(first), frame.shape[1]), dtype=complex)
    np.add(signed.take(first, axis=0), signed.take(second, axis=0), out=stencil.real)
    stencil.imag = imaginary.imag.take(first, axis=0)
    values = _evaluate(objective, p, _retract_rows(spec, p, stencil), complex).imag
    plus, minus = values[dim:].reshape(2, -1)
    hessian = ((plus - minus) / (2.0 * COMPLEX_STEP * GRADIENT_STEP_FACTOR)).take(mirror)
    gradient = unchecked(TangentVector, p, frame_sums(values[:dim] / COMPLEX_STEP, frame))
    return gradient, unchecked(SymmetricOperator, p, hessian)


@functools.cache
def _complex_plan(dim: int) -> tuple[np.ndarray, ...]:
    """Read-only index plan of the complex stencil in dimension ``dim``: probe r
    is i Im(i h E)[first[r]] plus rows ``first[r]`` and ``second[r]`` of
    [Re(i h E); delta E; -delta E] (a gradient row's signed zeros twice, which
    adds exactly), and ``mirror`` gives H_ij and H_ji one upper-triangle entry."""
    rows, cols = np.triu_indices(dim)
    first = np.concatenate([np.arange(dim), rows, rows])
    second = np.concatenate([np.arange(dim), cols + dim, cols + 2 * dim])
    mirror = np.empty((dim, dim), dtype=np.intp)
    mirror[rows, cols] = mirror[cols, rows] = np.arange(len(rows))
    plan = (first, second, mirror)
    for index in plan:
        index.setflags(write=False)
    return plan


@functools.cache
def _stencil_plan(dim: int) -> tuple[np.ndarray, ...]:
    """Read-only index plan of the Hessian stencil in dimension ``dim``:
    ``first`` and ``second`` pick each probe's two rows of [hE; -hE; 0],
    the last probe R_p(0) as row 2d twice, and four (d x d) gathers pick the
    probes of each H_ij = (pp - pm - mp + mm) / (4 h^2); for i = j the middle
    two are that centre probe."""
    rows, cols = np.triu_indices(dim, k=1)
    diag = np.arange(dim)
    first = np.concatenate([rows, rows, rows + dim, rows + dim, diag, diag + dim, [2 * dim]])
    second = np.concatenate([cols, cols + dim, cols, cols + dim, diag, diag + dim, [2 * dim]])
    n = len(rows)
    gathers = np.empty((4, dim, dim), dtype=np.intp)
    for k in range(4):  # pp, pm, mp, mm of each pair, in both triangles
        gathers[k, rows, cols] = gathers[k, cols, rows] = k * n + np.arange(n)
    gathers[0, diag, diag], gathers[3, diag, diag] = 4 * n + diag, 4 * n + dim + diag
    gathers[1:3, diag, diag] = 2 * dim * dim
    plan = (first, second, *gathers)
    for index in plan:
        index.setflags(write=False)
    return plan


def hessian_fd(objective, spec: RetractionSpec, p: ManifoldPoint) -> SymmetricOperator:
    """Four-point-stencil Hessian of J o R_p at 0, exactly symmetric: one array
    holds H_ij and H_ji.

    H_ij = [J(R(h e_i + h e_j)) - J(R(h e_i - h e_j))
            - J(R(-h e_i + h e_j)) + J(R(-h e_i - h e_j))] / (4 h^2)

    For i = j both middle probes are J(R_p(0)), read once, so a Hessian
    costs 2 d^2 + 1 probes in dimension d.  Each probe is the sum of two rows
    of [hE; -hE; 0] (E the frame) picked by ``_stencil_plan``: adding a
    negated row rounds as subtracting it does, down to signed zeros.  R_p(0)
    is the last probe, the zero row twice, retracted with the others and
    read in the stencil's one ``values`` call.  The matrix is in ``p.frame``.
    """
    frame = p.frame
    values = _evaluate(objective, p, _retract_rows(spec, p, _hessian_rows(frame)))
    return unchecked(SymmetricOperator, p, _hessians(values, len(frame)))


def derivatives_fd(objective, spec: RetractionSpec, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`gradient_fd` (default step) and :func:`hessian_fd` at k points in
    their cached frames: the (k x ambient) gradients, (k x d x d) Hessians and
    (k x d x ambient) frames.  The points are probed in one batch, or in one
    batch per group of points whose stencils fit ``_BATCH_FLOATS``."""
    if len(points) == 0:
        raise ContractError("derivatives_fd needs at least one point")
    dim, ambient = points[0].frame.shape
    group = max(1, _BATCH_FLOATS // ((2 * dim * dim + 2 * dim + 1) * ambient))
    if len(points) > group:
        parts = [derivatives_fd(objective, spec, points[i: i + group]) for i in range(0, len(points), group)]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))
    frames = np.array([pt.frame for pt in points])
    k = len(points)
    stencil = np.concatenate([_central_rows(frames, GRADIENT_STEP_FACTOR), _hessian_rows(frames)], axis=1)
    bases = PointRows.of(points, stencil.shape[1]) if k > 1 else points[0]
    values = _evaluate(objective, points[0], _retract_rows(spec, bases, stencil.reshape(-1, ambient))).reshape(k, -1)
    hessians = _hessians(values[:, 2 * dim:], dim)
    return _gradients(values[:, : 2 * dim], frames, GRADIENT_STEP_FACTOR), hessians, frames


def taylor_remainder(objective, spec: RetractionSpec, p: ManifoldPoint, v: TangentVector) -> float:
    """|J(R_p(v)) - J(p) - <v, grad> - 1/2 <v, Hess v>| with the FD gradient
    and Hessian read at p: one row of :func:`taylor_remainders`, as
    ``taylor_remainder_rows`` computes it.  A v based at another point raises
    ``ContractError``."""
    if v.base is not p and not np.array_equal(v.base.coords, p.coords):
        raise ContractError("tangent vector is based at a different point")
    grads, hessians, frames = derivatives_fd(objective, spec, [p])
    return float(taylor_remainders(objective, spec, p, v.coords[None], grads[0], hessians[0], frames[0])[0])


def taylor_remainders(objective, spec: RetractionSpec, p: ManifoldPoint, rows, gradient, hessian, frame) -> np.ndarray:
    """The Taylor remainder of each row (a checked tangent vector at p, not
    checked again), given the gradient's ambient coordinates and the Hessian
    matrix in ``frame``, from one batch retraction and one values call."""
    values = _evaluate(objective, p, np.concatenate([_retract_rows(spec, p, rows), p.coords[None]]))
    linear = row_dots(rows, gradient)
    quadratic = 0.5 * row_dots(rows, apply_many(hessian, frame, rows))
    return np.abs(values[:-1] - values[-1] - linear - quadratic)
