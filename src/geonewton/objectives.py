"""Four analytic objective families, each with its critical points (or minimizer)
and its Riemannian gradient ``analytic_gradient``, built unchecked, in closed form:

* :class:`Rayleigh` -- J(x) = x^T A x on the sphere, A symmetric.  Critical
  points are the eigenvectors of A; the value there is the eigenvalue.
* :class:`ProcrustesTrace` -- J(Q) = -trace(A^T Q) on SO(3).  The minimizer is
  the orthogonal polar factor of A.
* :class:`TiltedRayleigh` -- J(x) = x^T A x + 2 b^T x on the sphere.  The
  minimizer solves (A - lam I) x = -b, |x| = 1, with lam the root of the
  secular equation below the smallest eigenvalue of A.
* :class:`Brockett` -- J(Q) = trace(Q^T M Q N) on SO(3) with M = U diag(m) U^T
  and N = diag(n).  The minimizer is U when m descends and n ascends.

The first two have even pullbacks at their critical points: J(R_p(v)) has no
cubic term in v under exp, projection or Cayley, so residuals and Newton errors
decay one order faster than the guaranteed quadratic rate.  The last two are
built with a nonzero cubic pullback term at the minimizer, which is where the
quadratic rate is sharp; their constructors reject the instances where that
term vanishes.

Any object exposing ``values(p, points)`` works with the finite-difference
and Newton machinery, which reads nothing else of it but ``value`` and
``holomorphic`` (below); a residual sweep also reads ``analytic_gradient``.
Given a base point p and a (k x ambient) array of points on p's manifold,
``values`` returns the k values as an array; every stencil calls it once.
An object with only ``value(p)`` gets ``values`` in two lines::

    def values(self, p, points):
        return np.array([self.value(p.manifold.point(row)) for row in points])

The four families here have one kernel each, ``values``; ``value`` evaluates
its one row.  These four declare ``holomorphic = True``: Newton reads their
gradient by complex step, so ``values`` must be complex-analytic in complex
points (no ``abs``, ``conj``, ``max`` or real casts), and a holomorphic
objective also needs ``value(p)``, with which Newton's first-iterate guard
reads |J(p0)|.  Other objectives are read by FD.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, ContractError
from .manifolds import (
    ManifoldPoint,
    Rotations3,
    Sphere,
    TangentVector,
    row_dots,
    unchecked,
)


def _check_sphere_point(objective, p: ManifoldPoint) -> None:
    """Raise unless p lies on the sphere the objective's matrix is sized for."""
    size = objective.matrix.shape[0]
    if not isinstance(p.manifold, Sphere) or p.manifold.ambient_dim != size:
        raise ConfigurationError(
            f"{type(objective).__name__} objective of size {size} needs a matching sphere point"
        )


def _check_rotation_point(objective, p: ManifoldPoint) -> None:
    if not isinstance(p.manifold, Rotations3):
        raise ConfigurationError(f"{type(objective).__name__} objective needs a rotation point")


def _symmetric_matrix(objective, matrix) -> np.ndarray:
    """A read-only copy of the objective's square symmetric matrix."""
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"{type(objective).__name__} matrix must be square")
    if np.linalg.norm(a - a.T) > 1e-12:
        raise ContractError(f"{type(objective).__name__} matrix must be symmetric")
    a.setflags(write=False)
    return a


def _quadratic_forms(matrix: np.ndarray, points: np.ndarray) -> np.ndarray:
    """x @ matrix @ x for every row x, rounded as for a single vector."""
    return (points[:, None, :] @ matrix @ points[:, :, None])[:, 0, 0]


def _sphere_gradient(objective, p: ManifoldPoint, tilt=0.0) -> TangentVector:
    """grad J(x) of x^T A x + 2 b^T x: 2 (A x + b) projected onto T_x twice, as
    at a critical point the first leaves its rounding along x (|x . g| ~ |g|)."""
    _check_sphere_point(objective, p)
    x = p.coords
    g = 2.0 * (objective.matrix @ x + tilt)
    for _ in range(2):
        g = g - np.dot(x, g) * x
    return unchecked(TangentVector, p, g)


class Rayleigh:
    """Quadratic form x^T A x restricted to the unit sphere."""

    kind = "rayleigh"
    holomorphic = True

    def __init__(self, matrix):
        self.matrix = _symmetric_matrix(self, matrix)

    def value(self, p: ManifoldPoint) -> float:
        return float(self.values(p, p.coords[None])[0])

    def values(self, p: ManifoldPoint, points: np.ndarray) -> np.ndarray:
        _check_sphere_point(self, p)
        return _quadratic_forms(self.matrix, points)

    def analytic_gradient(self, p: ManifoldPoint) -> TangentVector:
        """grad J(x) = 2 (A x - (x^T A x) x); vanishes exactly at eigenvectors."""
        return _sphere_gradient(self, p)


class ProcrustesTrace:
    """Negated trace alignment -trace(A^T Q) on the rotation group."""

    kind = "procrustes"
    holomorphic = True

    def __init__(self, matrix):
        a = np.asarray(matrix, dtype=float)
        if a.shape != (3, 3):
            raise ContractError("ProcrustesTrace matrix must be 3x3")
        self.matrix = a.copy()
        self.matrix.setflags(write=False)

    def value(self, p: ManifoldPoint) -> float:
        return float(self.values(p, p.coords[None])[0])

    def values(self, p: ManifoldPoint, points: np.ndarray) -> np.ndarray:
        _check_rotation_point(self, p)
        return -np.sum(self.matrix * points.reshape(-1, 3, 3), axis=(1, 2))

    def analytic_gradient(self, p: ManifoldPoint) -> TangentVector:
        """Tangent projection of the ambient gradient -A at Q."""
        _check_rotation_point(self, p)
        q = p.matrix
        body = q.T @ self.matrix
        skew = 0.5 * (body - body.T)
        return unchecked(TangentVector, p, -(q @ skew).reshape(9))

    def polar_factor(self) -> ManifoldPoint:
        """Orthogonal polar factor of A: the critical point the iteration
        should find when A has positive determinant."""
        u, _, vt = np.linalg.svd(self.matrix)
        rot = u @ vt
        if np.linalg.det(rot) <= 0:
            raise ContractError("matrix has no rotation polar factor (det <= 0)")
        return Rotations3().point_from_matrix(rot)


# Relative size below which a component that must be nonzero counts as zero.
DEGENERACY_TOL = 1e-8


class TiltedRayleigh:
    """Tilted quadratic x^T A x + 2 b^T x restricted to the unit sphere.

    Under the exponential map the pullback at a critical point x has cubic
    term (b^T v) |v|^2, so it is even only when b is parallel to x.  The
    constructor solves for the minimizer and rejects both degenerate
    instances: the "hard case", where b has no component along the bottom
    eigenspace of A and the secular equation has no root below it, and a tilt
    along the bottom eigenvector, where the cubic term vanishes.
    """

    kind = "tilted"
    holomorphic = True

    def __init__(self, matrix, tilt):
        self.matrix = a = _symmetric_matrix(self, matrix)
        b = np.asarray(tilt, dtype=float)
        if b.shape != (a.shape[0],):
            raise ContractError("TiltedRayleigh tilt must match the matrix size")
        self.tilt = b.copy()
        self.tilt.setflags(write=False)
        self.multiplier, x = self._solve_secular()
        self._minimizer = Sphere(a.shape[0]).point(x)

    def _solve_secular(self) -> tuple[float, np.ndarray]:
        """Root lam < a_min of sum_i c_i^2 / (a_i - lam)^2 = 1, c = U^T b.

        Newton runs on psi(t) = 1/|x(t)| - 1 with t = a_min - lam.  psi is
        increasing and concave (the Hebden/More-Sorensen form), so Newton
        started left of the root climbs to it monotonically.  psi(|c_bottom|)
        <= 0 supplies that start.
        """
        eigs, vecs = np.linalg.eigh(self.matrix)
        c = vecs.T @ self.tilt
        gaps = eigs - eigs[0]
        scale = float(np.linalg.norm(self.tilt))
        bottom = float(np.linalg.norm(c[gaps <= 1e-12 * max(1.0, float(np.abs(eigs).max()))]))
        if bottom <= DEGENERACY_TOL * scale:
            raise ContractError(
                "hard case: the tilt has no component along the bottom eigenvector"
            )
        t = bottom
        for _ in range(100):
            w = c / (gaps + t)
            norm_sq = float(w @ w)
            psi = 1.0 / np.sqrt(norm_sq) - 1.0
            slope = float(w @ (w / (gaps + t))) * norm_sq ** -1.5
            t_next = t - psi / slope
            if not t_next > t:
                break
            t = t_next
        x = -(vecs @ (c / (gaps + t)))
        x /= np.linalg.norm(x)
        if np.linalg.norm(self.tilt - float(self.tilt @ x) * x) <= DEGENERACY_TOL * scale:
            raise ContractError(
                "zero cubic coefficient: the tilt is parallel to the minimizer"
            )
        return float(eigs[0] - t), x

    def value(self, p: ManifoldPoint) -> float:
        return float(self.values(p, p.coords[None])[0])

    def values(self, p: ManifoldPoint, points: np.ndarray) -> np.ndarray:
        _check_sphere_point(self, p)
        return _quadratic_forms(self.matrix, points) + 2.0 * row_dots(points, self.tilt)

    def analytic_gradient(self, p: ManifoldPoint) -> TangentVector:
        """grad J(x) = 2 (A x + b - (x^T A x + b^T x) x)."""
        return _sphere_gradient(self, p, self.tilt)

    def minimizer(self) -> ManifoldPoint:
        """Global minimizer -(A - lam I)^{-1} b from the secular equation."""
        return self._minimizer


class Brockett:
    """Brockett cost trace(Q^T M Q N) on the rotation group, with
    M = U diag(m) U^T and N = diag(n).

    With m strictly descending and n strictly ascending the minimizer is U.
    Under the exponential map, Q = U expm(hat(w)), the pullback at U has cubic
    term kappa w1 w2 w3 with

        kappa = -(m1 n2 - m2 n1) + (m1 n3 - m3 n1) - (m2 n3 - m3 n2).

    The constructor rejects pairs (m, n) with kappa = 0, for example
    m = (2, 1.5, 1) with n = (1, 2, 3), whose pullback is even.
    """

    kind = "brockett"
    holomorphic = True

    def __init__(self, rotation, m, n):
        self._minimizer = Rotations3().point_from_matrix(rotation)
        m = np.asarray(m, dtype=float)
        n = np.asarray(n, dtype=float)
        if m.shape != (3,) or n.shape != (3,):
            raise ContractError("Brockett weights m and n must have length 3")
        if not (np.all(np.diff(m) < 0) and np.all(np.diff(n) > 0)):
            raise ContractError("Brockett needs m strictly descending and n strictly ascending")
        self.cubic_coefficient = float(
            -(m[0] * n[1] - m[1] * n[0]) + (m[0] * n[2] - m[2] * n[0]) - (m[1] * n[2] - m[2] * n[1])
        )
        if abs(self.cubic_coefficient) <= DEGENERACY_TOL * (m[0] - m[2]) * (n[2] - n[0]):
            raise ContractError("zero cubic coefficient: the pullback at the minimizer is even")
        u = self._minimizer.matrix
        self.matrix = u @ np.diag(m) @ u.T
        self.matrix.setflags(write=False)
        self.weights = n.copy()
        self.weights.setflags(write=False)

    def value(self, p: ManifoldPoint) -> float:
        return float(self.values(p, p.coords[None])[0])

    def values(self, p: ManifoldPoint, points: np.ndarray) -> np.ndarray:
        _check_rotation_point(self, p)
        q = points.reshape(-1, 3, 3)
        bodies = q.transpose(0, 2, 1) @ self.matrix @ q
        return row_dots(np.diagonal(bodies, axis1=1, axis2=2), self.weights)

    def analytic_gradient(self, p: ManifoldPoint) -> TangentVector:
        """grad J(Q) = Q [S, N] with S = Q^T M Q."""
        _check_rotation_point(self, p)
        q = p.matrix
        sn = (q.T @ self.matrix @ q) * self.weights
        return unchecked(TangentVector, p, (q @ (sn - sn.T)).reshape(9))

    def minimizer(self) -> ManifoldPoint:
        """The frame U of M, minimizer by the rearrangement inequality."""
        return self._minimizer
