"""Retraction families of known order, and their inverses.

Families
--------
``exp``         the exponential map itself (exact; order reported as inf)
``projection``  sphere only: (p + v) / |p + v|, order 2
``cayley``      rotations only: Q (I - W/2)^{-1} (I + W/2) with W = Q^T V, order 2
``perturbed``   sphere only: normalize(p + v + |v|^2 u(p)) with u(p) the first
                tangent-basis vector; the |v|^2 u term makes it exactly order 1

Every family satisfies R_p(0) = p and first-order agreement with the
exponential map.

Each family is one kernel that maps a (k x ambient) array of tangent vectors
at one base point (or row i at base i of a :class:`PointRows`) to k point
rows, computing each row on its own, and one inverse kernel that maps point
rows back.  One table gives each family's declared order, kernel, manifold
class and inverse (the exponential's is ``log_many``).  :func:`retract_many`
and :func:`inverse_retract_many` check a caller's rows and run a kernel (the
library's own rows and points, built from checked values, go to the kernels
unchecked through ``_retract_rows`` and ``_inverse_rows``); :func:`retract`
and :func:`inverse_retract` run one row, so each agrees with its row of the
batch bit for bit.  Each kernel returns points or raises
``ContractError``, with no numpy warning; each inverse raises
``InversionFailureError`` on a row outside the range it inverts.  The
projection, perturbed and exponential kernels end in a division by the row
norm, so they return unit rows unless that norm overflows, which raises.
The Cayley kernel's error grows like eps |v|, so it checks its output with
the point check; a solve singular to working precision raises too.

u(p) is read from the base point's cached frame (``ManifoldPoint.frame``),
so retracting, inverting and probing at one point build that frame once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError, InversionFailureError
from .manifolds import (
    Manifold,
    ManifoldPoint,
    PointRows,
    Rotations3,
    Sphere,
    TangentVector,
    _real_array,
    row_dots,
    row_norms,
    silent_overflow,
    unchecked,
    unit_rows,
)

EXPONENTIAL = "exp"
PROJECTION = "projection"
CAYLEY = "cayley"
PERTURBED = "perturbed"

_ROUNDTRIP_TOL = 1e-10


def _projection_rows(p: ManifoldPoint, rows: np.ndarray) -> np.ndarray:
    return unit_rows(p.coords + rows)


def _perturbed_rows(p: ManifoldPoint, rows: np.ndarray) -> np.ndarray:
    return unit_rows(p.coords + rows + row_dots(rows, rows)[:, None] * p.frame[0])


def _cayley_rows(p: ManifoldPoint, rows: np.ndarray) -> np.ndarray:
    q = p.matrix
    body = q.swapaxes(-1, -2) @ rows.reshape(-1, 3, 3)
    body = 0.5 * (body - body.transpose(0, 2, 1))
    eye = np.eye(3)
    try:
        out = (q @ np.linalg.solve(eye - 0.5 * body, eye + 0.5 * body)).reshape(-1, 9)
    except np.linalg.LinAlgError as exc:  # I - W/2 is singular to working precision
        raise ContractError("tangent vector too long to map to the manifold") from exc
    p.manifold._check_points(out)  # orthogonal only to about eps |v|
    return out


def _inverse_projection(p: ManifoldPoint | PointRows, qs: np.ndarray) -> np.ndarray:
    c = row_dots(p.coords, qs)
    if (c <= 1e-12).any():
        raise InversionFailureError("target lies outside the invertible hemisphere")
    return qs / c[:, None] - p.coords


def _inverse_cayley(p: ManifoldPoint | PointRows, qs: np.ndarray) -> np.ndarray:
    rels = p.matrix.swapaxes(-1, -2) @ qs.reshape(-1, 3, 3)
    eye = np.eye(3)
    try:
        body = 2.0 * np.linalg.solve(eye + rels, rels - eye)
    except np.linalg.LinAlgError as exc:
        raise InversionFailureError("Cayley inverse undefined (angle at pi)") from exc
    body = 0.5 * (body - body.transpose(0, 2, 1))
    return (p.matrix @ body).reshape(-1, 9)


def _inverse_perturbed(p: ManifoldPoint | PointRows, qs: np.ndarray) -> np.ndarray:
    """Closed-form inverse of q = (p + v + |v|^2 u) / N.

    Since v and u are tangent, q.p = 1/N.  Writing v = a u + w with w
    orthogonal to u, the rest of q gives w = N q_w and a + a^2 + |w|^2 = N q.u.
    The root through a = 0 is a = 2c / (1 + sqrt(1 + 4c)) with
    c = N q.u - |w|^2; there is none when 1 + 4c < 0, and q is then outside
    the range of R_p.
    """
    cos_angle = row_dots(p.coords, qs)
    if (cos_angle <= 0.0).any():
        raise InversionFailureError("target lies outside the range of the perturbed retraction")
    scale = 1.0 / cos_angle
    u = p.frame[0]
    tangent = qs - cos_angle[:, None] * p.coords  # tangent_project of q
    along = row_dots(tangent, u)
    w = scale[:, None] * (tangent - along[:, None] * u)
    c = scale * along - row_dots(w, w)
    disc = 1.0 + 4.0 * c
    if (disc < 0.0).any():
        raise InversionFailureError("target lies outside the range of the perturbed retraction")
    a = 2.0 * c / (1.0 + np.sqrt(disc))
    return a[:, None] * u + w


# family: (declared order, kernel, the manifold class it is defined on, inverse kernel)
_TABLE = {
    EXPONENTIAL: (math.inf, lambda p, rows: p.manifold.exp_many(p, rows), Manifold,
                  lambda p, qs: p.manifold.log_many(p, qs)),
    PROJECTION: (2, _projection_rows, Sphere, _inverse_projection),
    CAYLEY: (2, _cayley_rows, Rotations3, _inverse_cayley),
    PERTURBED: (1, _perturbed_rows, Sphere, _inverse_perturbed),
}

FAMILIES = tuple(_TABLE)


@dataclass(frozen=True)
class RetractionSpec:
    """One member of the retraction family together with its declared order."""

    family: str
    declared_order: float = field(init=False)

    def __post_init__(self):
        if self.family not in _TABLE:
            raise ConfigurationError(f"unknown retraction family {self.family!r}")
        object.__setattr__(self, "declared_order", _TABLE[self.family][0])

    def validate_for(self, manifold: Manifold) -> None:
        if not isinstance(manifold, _TABLE[self.family][2]):
            raise ConfigurationError(
                f"retraction {self.family!r} is not defined on {manifold!r}"
            )


def retract(spec: RetractionSpec, v: TangentVector) -> ManifoldPoint:
    """Map a tangent vector back to the manifold with the chosen family."""
    return unchecked(ManifoldPoint, v.base.manifold, _retract_rows(spec, v.base, v.coords[None])[0])


@silent_overflow
def retract_many(spec: RetractionSpec, p: ManifoldPoint | PointRows, vectors) -> np.ndarray:
    """Retract every row of ``vectors``, a (k x ambient) array of tangent
    vectors at p (row i at base i of a k-row :class:`PointRows`), and return
    the k points as rows.

    Each row is checked as :class:`TangentVector` would check it.
    """
    rows = _rows(spec, p, vectors, "tangent vectors")
    p.manifold._check_tangents(p, rows)
    return _retract_rows(spec, p, rows)


@silent_overflow
def _retract_rows(spec: RetractionSpec, p: ManifoldPoint | PointRows, rows: np.ndarray) -> np.ndarray:
    """The family's kernel on a (k x ambient) array of rows tangent at p that
    the library built from checked values (frame stencils, sweep rows s w,
    :func:`retract`'s vector), not checked again.  They may be complex: every
    kernel maps the complex-step probes at one point holomorphically."""
    spec.validate_for(p.manifold)
    return _TABLE[spec.family][1](p, rows)


def _rows(spec: RetractionSpec, p: ManifoldPoint | PointRows, values, what: str) -> np.ndarray:
    """``values`` as a real (k x ambient) array (k bases in a PointRows), once spec is defined at p."""
    spec.validate_for(p.manifold)
    ambient = p.manifold.ambient_dim
    rows = _real_array(values)
    if rows.ndim != 2 or rows.shape[1] != ambient or p.coords.shape[:-1] not in ((), rows.shape[:1]):
        raise ContractError(f"expected a (k, {ambient}) array of {what}, got shape {rows.shape}")
    return rows


def inverse_retract(spec: RetractionSpec, p: ManifoldPoint, q: ManifoldPoint) -> TangentVector:
    """Find v in T_pM with retract(spec, v) = q: one row of :func:`inverse_retract_many`."""
    p.manifold._check_members(q)
    return unchecked(TangentVector, p, _inverse_rows(spec, p, q.coords[None])[0])


@silent_overflow
def inverse_retract_many(spec: RetractionSpec, p: ManifoldPoint | PointRows, targets) -> np.ndarray:
    """The tangent rows v with R_p(v) = q for every row q of ``targets``, a
    (k x ambient) array of points (row i from base i of a k-row
    :class:`PointRows`).  Each row is checked as :class:`ManifoldPoint` would
    check it."""
    qs = _rows(spec, p, targets, "points")
    p.manifold._check_points(qs)
    return _inverse_rows(spec, p, qs)


@silent_overflow
def _inverse_rows(spec: RetractionSpec, p: ManifoldPoint | PointRows, qs: np.ndarray) -> np.ndarray:
    """The inverse kernel on checked point rows (one may serve every base),
    not checked again.  Every output row is checked tangent and, except
    under exp, by a round trip that names the first gap past 1e-10."""
    spec.validate_for(p.manifold)
    out = _TABLE[spec.family][3](p, qs)
    p.manifold._check_tangents(p, out)
    if spec.family != EXPONENTIAL:  # exp inverts log_many's rows exactly
        gaps = row_norms(_TABLE[spec.family][1](p, out) - qs)
        past = gaps[gaps > _ROUNDTRIP_TOL]
        if past.size:
            raise InversionFailureError(f"inverse retraction round trip off by {past[0]:.3e}")
    return out
