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
(probes x ambient) array that ``_retract_rows`` checks (a retraction not
defined on p's manifold, or a row not tangent at p, raises before any
probe) and maps to the manifold, and the objective's optional
``values(p, points)`` evaluates, one call each (an objective with only
``value(p)`` is evaluated row by row).  The batched kernels round as the
single-probe path (``retract`` then ``value``) does, so every probe value
and every extracted derivative is the same bit for bit.
Each Hessian probe is the sum of two rows of [hE; -hE] (E the frame) from an
index plan cached per dimension.  The two mixed probes of a diagonal entry
both sit at R_p(0), read once, so a Hessian costs 2 d^2 + 1 probes; R_p(0)
is a zero row at the end of the stencil, and J is read there at the centre
row of the stencil's one ``values`` call.
One assembly serves one point and many: its arrays may carry leading stack
axes (one entry per point) that :func:`gradient_fd` and :func:`hessian_fd`
leave out and :func:`derivatives_fd` uses to probe k points in one batch
over a :class:`PointRows` stack (one per group of points at large
dimension), each Hessian centre R_p(0) a zero row.

Step sizes balance truncation against rounding: eps^(1/3) for first
differences, eps^(1/4) for second differences.  The steps are deliberately
independent of the objective's magnitude: probing cJ at the same points as J
makes the extracted derivatives exactly c-homogeneous, which the Newton step
relies on.  :func:`gradient_cs` reads the gradient by complex step: its d
probes R_p(i h e_i) subtract nothing, so it has no rounding floor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, EvaluationError
from .manifolds import ManifoldPoint, PointRows, TangentVector, _real_array, frame_sums, row_dots, unchecked
from .retractions import RetractionSpec, _retract_rows, retract_many
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


def _evaluate(objective, p: ManifoldPoint | PointRows, points: np.ndarray, dtype=float) -> np.ndarray:
    """J at every point row as ``dtype``, through ``values`` when the objective
    has it and through ``value`` row by row otherwise; each must be finite."""
    batched = getattr(objective, "values", None)
    if batched is not None:
        out = np.asarray(batched(p, points), dtype=dtype)
        if out.shape != (len(points),):
            raise ContractError("objective values() must return one value per point")
    else:
        out = np.array([objective.value(unchecked(ManifoldPoint, p.manifold, row)) for row in points], dtype=dtype)
    if not np.isfinite(out).all():
        raise EvaluationError("objective returned a non-finite value during a probe")
    return out


def _central_rows(frames: np.ndarray, h: float) -> np.ndarray:
    """[hE; -hE] for each (d x ambient) frame E."""
    return h * np.concatenate([frames, -frames], axis=-2)


def _hessian_rows(frames: np.ndarray) -> np.ndarray:
    """Each frame's Hessian stencil: the plan's sums of two rows of [hE; -hE]."""
    first, second, _, _ = _stencil_plan(frames.shape[-2])
    signed = _central_rows(frames, HESSIAN_STEP_FACTOR)
    return signed.take(first, axis=-2) + signed.take(second, axis=-2)


def _gradients(values: np.ndarray, frames: np.ndarray, h: float) -> np.ndarray:
    dim = frames.shape[-2]
    return frame_sums((values[..., :dim] - values[..., dim:]) / (2.0 * h), frames)


def _hessians(values: np.ndarray, centres, dim: int) -> np.ndarray:
    """Hessian matrices from Hessian-stencil values and the centre values
    J(R_p(0)), exactly symmetric: one array holds H_ij and H_ji."""
    _, _, upper, lower = _stencil_plan(dim)
    h = HESSIAN_STEP_FACTOR
    n = len(upper)
    pp, pm, mp, mm = (values[..., i * n: (i + 1) * n] for i in range(4))
    diag_pp, diag_mm = values[..., 4 * n: 4 * n + dim], values[..., 4 * n + dim:]
    out = np.empty(values.shape[:-1] + (dim * dim,))
    out[..., upper] = out[..., lower] = (pp - pm - mp + mm) / (4.0 * h * h)
    out[..., :: dim + 1] = (diag_pp - centres - centres + diag_mm) / (4.0 * h * h)
    return out.reshape(values.shape[:-1] + (dim, dim))


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


def hessian_fd(objective, spec: RetractionSpec, p: ManifoldPoint) -> SymmetricOperator:
    """Four-point-stencil Hessian of J o R_p at 0, exactly symmetric: one array
    holds H_ij and H_ji.

    H_ij = [J(R(h e_i + h e_j)) - J(R(h e_i - h e_j))
            - J(R(-h e_i + h e_j)) + J(R(-h e_i - h e_j))] / (4 h^2)

    For i = j both middle probes are J(R_p(0)), read once, so a Hessian
    costs 2 d^2 + 1 probes in dimension d.  Each probe is the sum of two rows
    of [hE; -hE] (E the frame) picked by ``_stencil_plan``: adding a negated
    row rounds as subtracting it does, down to signed zeros.  R_p(0) is the
    zero row after them, retracted with them and read at the centre row of
    the stencil's one ``values`` call.  The matrix is in ``p.frame``.
    """
    frame = p.manifold.tangent_basis(p)  # p.frame
    stencil = np.concatenate([_hessian_rows(frame), np.zeros((1, p.manifold.ambient_dim))])
    values = _evaluate(objective, p, _retract_rows(spec, p, stencil))
    return unchecked(SymmetricOperator, p, _hessians(values[:-1], values[-1], len(frame)))


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
    zero = np.zeros((k, 1, ambient))
    stencil = np.concatenate([_central_rows(frames, GRADIENT_STEP_FACTOR), _hessian_rows(frames), zero], axis=1)
    bases = PointRows.of(points, stencil.shape[1]) if k > 1 else points[0]
    values = _evaluate(objective, bases, _retract_rows(spec, bases, stencil.reshape(-1, ambient))).reshape(k, -1)
    hessians = _hessians(values[:, 2 * dim: -1], values[:, -1:], dim)
    return _gradients(values[:, : 2 * dim], frames, GRADIENT_STEP_FACTOR), hessians, frames


def taylor_remainder(objective, spec: RetractionSpec, p: ManifoldPoint, v: TangentVector,
                     gradient: TangentVector | None = None, hessian: SymmetricOperator | None = None) -> float:
    """|J(R_p(v)) - J(p) - <v, grad> - 1/2 <v, Hess v>|: one row of
    :func:`taylor_remainders`.

    The gradient and Hessian may be passed in so a sweep over many v reuses
    one extraction; they must then have been computed at p with this spec.
    A v, gradient or Hessian based at another point raises ``ContractError``.
    """
    for name, value in (("tangent vector", v), ("gradient", gradient), ("Hessian", hessian)):
        if value is not None and value.base is not p and not np.array_equal(value.base.coords, p.coords):
            raise ContractError(f"{name} is based at a different point")
    if gradient is None:
        gradient = gradient_fd(objective, spec, p)
    if hessian is None:
        hessian = hessian_fd(objective, spec, p)
    return float(taylor_remainders(objective, spec, p, v.coords[None], gradient.coords, hessian.matrix, p.frame)[0])


def taylor_remainders(objective, spec: RetractionSpec, p: ManifoldPoint, rows, gradient, hessian, frame) -> np.ndarray:
    """The Taylor remainder of each row (a tangent vector at p), given the
    gradient's ambient coordinates and the Hessian matrix in ``frame``, from
    one retract_many and one values call; J(p) is read from p as a last row."""
    values = _evaluate(objective, p, np.concatenate([retract_many(spec, p, rows), p.coords[None]]))
    linear = row_dots(rows, gradient)
    quadratic = 0.5 * row_dots(rows, apply_many(hessian, frame, rows))
    return np.abs(values[:-1] - values[-1] - linear - quadratic)
