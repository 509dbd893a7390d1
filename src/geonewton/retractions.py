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

:func:`retract` maps one tangent vector; :func:`retract_many` maps every row
of a (k x ambient) array of tangent vectors at one base point, with the same
arithmetic, so its row i equals ``retract(spec, TangentVector(p, V[i]))``
bit for bit.  Finite-difference stencils go through the batched form.

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
    Rotations3,
    Sphere,
    TangentVector,
    row_dots,
    row_norms,
)

EXPONENTIAL = "exp"
PROJECTION = "projection"
CAYLEY = "cayley"
PERTURBED = "perturbed"

FAMILIES = (EXPONENTIAL, PROJECTION, CAYLEY, PERTURBED)

_DECLARED_ORDER = {
    EXPONENTIAL: math.inf,
    PROJECTION: 2,
    CAYLEY: 2,
    PERTURBED: 1,
}

_ROUNDTRIP_TOL = 1e-10


@dataclass(frozen=True)
class RetractionSpec:
    """One member of the retraction family together with its declared order."""

    family: str
    declared_order: float = field(init=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown retraction family {self.family!r}")
        object.__setattr__(self, "declared_order", _DECLARED_ORDER[self.family])

    def validate_for(self, manifold: Manifold) -> None:
        ok = (
            self.family == EXPONENTIAL
            or (self.family in (PROJECTION, PERTURBED) and isinstance(manifold, Sphere))
            or (self.family == CAYLEY and isinstance(manifold, Rotations3))
        )
        if not ok:
            raise ConfigurationError(
                f"retraction {self.family!r} is not defined on {manifold!r}"
            )


def perturbation_direction(p: ManifoldPoint) -> TangentVector:
    """The fixed unit tangent u(p) entering the order-1 family: the first
    tangent-basis vector at p."""
    return TangentVector(p, p.frame[0])


def retract(spec: RetractionSpec, v: TangentVector) -> ManifoldPoint:
    """Map a tangent vector back to the manifold with the chosen family."""
    p = v.base
    manifold = p.manifold
    spec.validate_for(manifold)

    if spec.family == EXPONENTIAL:
        return manifold.exp_map(v)

    if spec.family == PROJECTION:
        out = p.coords + v.coords
        return ManifoldPoint(manifold, out / np.linalg.norm(out))

    if spec.family == PERTURBED:
        out = p.coords + v.coords + float(np.dot(v.coords, v.coords)) * p.frame[0]
        return ManifoldPoint(manifold, out / np.linalg.norm(out))

    # Cayley on SO(3)
    q = p.matrix
    body = q.T @ v.matrix
    body = 0.5 * (body - body.T)
    eye = np.eye(3)
    cay = np.linalg.solve(eye - 0.5 * body, eye + 0.5 * body)
    return Rotations3().point_from_matrix(q @ cay)


def retract_many(spec: RetractionSpec, p: ManifoldPoint, vectors) -> np.ndarray:
    """Retract every row of ``vectors``, a (k x ambient) array of tangent
    vectors at p, and return the k points as rows.

    Each row is checked as :class:`TangentVector` and :class:`ManifoldPoint`
    would check it.
    """
    manifold = p.manifold
    spec.validate_for(manifold)
    rows = np.asarray(vectors, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != manifold.ambient_dim:
        raise ContractError(
            f"expected a (k, {manifold.ambient_dim}) array of tangent vectors, got shape {rows.shape}"
        )
    manifold._check_tangents(p, rows)

    if spec.family == EXPONENTIAL:
        out = manifold.exp_many(p, rows)
    elif spec.family == CAYLEY:
        q = p.matrix
        body = q.T @ rows.reshape(-1, 3, 3)
        body = 0.5 * (body - body.transpose(0, 2, 1))
        eye = np.eye(3)
        cay = np.linalg.solve(eye - 0.5 * body, eye + 0.5 * body)
        out = (q @ cay).reshape(-1, 9)
    else:
        out = p.coords + rows
        if spec.family == PERTURBED:
            out = out + row_dots(rows, rows)[:, None] * p.frame[0]
        out = out / row_norms(out)[:, None]
    manifold._check_points(out)
    return out


def inverse_retract(spec: RetractionSpec, p: ManifoldPoint, q: ManifoldPoint) -> TangentVector:
    """Find v in T_pM with retract(spec, v) = q.

    Every family has a closed form; each raises ``InversionFailureError`` when
    q lies outside the range it inverts on.
    """
    manifold = p.manifold
    spec.validate_for(manifold)

    if spec.family == EXPONENTIAL:
        return manifold.log_map(p, q)

    if spec.family == PROJECTION:
        c = float(np.dot(p.coords, q.coords))
        if c <= 1e-12:
            raise InversionFailureError("target lies outside the invertible hemisphere")
        v = TangentVector(p, q.coords / c - p.coords)
        _verify_roundtrip(spec, v, q)
        return v

    if spec.family == CAYLEY:
        rel = p.matrix.T @ q.matrix
        eye = np.eye(3)
        try:
            body = 2.0 * np.linalg.solve(eye + rel, rel - eye)
        except np.linalg.LinAlgError as exc:
            raise InversionFailureError("Cayley inverse undefined (angle at pi)") from exc
        body = 0.5 * (body - body.T)
        v = TangentVector(p, (p.matrix @ body).reshape(9))
        _verify_roundtrip(spec, v, q)
        return v

    return _inverse_perturbed(spec, p, q)


def _inverse_perturbed(spec: RetractionSpec, p: ManifoldPoint, q: ManifoldPoint) -> TangentVector:
    """Closed-form inverse of q = (p + v + |v|^2 u) / N.

    Since v and u are tangent, q.p = 1/N.  Writing v = a u + w with w
    orthogonal to u, the rest of q gives w = N q_w and a + a^2 + |w|^2 = N q.u.
    The root through a = 0 is a = 2c / (1 + sqrt(1 + 4c)) with
    c = N q.u - |w|^2; there is none when 1 + 4c < 0, and q is then outside
    the range of R_p.
    """
    cos_angle = float(np.dot(p.coords, q.coords))
    if cos_angle <= 0.0:
        raise InversionFailureError("target lies outside the range of the perturbed retraction")
    scale = 1.0 / cos_angle
    u = p.frame[0]
    tangent = p.manifold.tangent_project(p, q.coords).coords
    along = float(np.dot(tangent, u))
    w = scale * (tangent - along * u)
    c = scale * along - float(np.dot(w, w))
    disc = 1.0 + 4.0 * c
    if disc < 0.0:
        raise InversionFailureError("target lies outside the range of the perturbed retraction")
    a = 2.0 * c / (1.0 + math.sqrt(disc))
    v = TangentVector(p, a * u + w)
    _verify_roundtrip(spec, v, q)
    return v


def _verify_roundtrip(spec: RetractionSpec, v: TangentVector, q: ManifoldPoint) -> None:
    gap = float(np.linalg.norm(retract(spec, v).coords - q.coords))
    if gap > _ROUNDTRIP_TOL:
        raise InversionFailureError(f"inverse retraction round trip off by {gap:.3e}")
