"""Embedded representations of the unit sphere S^{n-1} and the rotation
group SO(3).

Points and tangent vectors are stored as ambient coordinate vectors: length
n for the sphere, length 9 (row-major flattened 3x3 matrix) for rotations.
The metric is the ambient Euclidean dot product, which for rotations equals
the trace inner product trace(U^T V) on the reshaped matrices, and
``TangentVector.norm`` is the one length, finite wherever |v| is in range.

All values are immutable after construction and every operation is a pure
function of its inputs, so concurrent use needs no synchronization.

Each map has one kernel, written for a stack of rows: ``exp_many`` for the
exponential map, ``log_many`` for its inverse, ``distance_many`` for the
geodesic distance, and :func:`rotation_exp_many`, :func:`rotation_angles`,
``_check_points`` and ``_check_tangents``.  The single-vector forms
(``exp_map``, ``geodesic_distance``, :func:`rotation_exp`, the constructors'
checks, ``inverse_retract`` under exp) run the same kernel on one row, each
row on its own, so a row of a stack equals the one-row call bit for bit.  A check rejects NaN
and inf entries first, then fails unless its error is at most its tolerance.
A kernel reads its base point only through ``manifold``, ``coords``,
``matrix`` and ``frame[0]``, so a :class:`PointRows` stack can stand in for
it: row i is then mapped or checked at base i, as the one-base call would.
Near the cut locus the sphere's log magnifies rounding, so a sphere log row
is tangent at its base or ``log_many`` raises ``CutLocusError``.

Values are checked once, where they enter: coordinates given to
:class:`ManifoldPoint`, :class:`TangentVector` or ``tangent_project``, the
scale given to ``TangentVector.scaled``, and the input of :func:`hat` and
:func:`rotation_exp` raise ``ContractError`` unless they are real numbers in
a rectangular array of the right shape, finite (``hat`` passes NaN on), and
on the manifold, tangent or skew as asked; so do the points of another
manifold given to ``geodesic_distance``.  A value computed from checked
values (``exp_map``'s point, an ``analytic_gradient``) is :func:`unchecked`
and not checked again; an exp kernel whose |v| overflows raises ``ContractError``.

Each point has one orthonormal tangent frame, ``p.frame``: every gradient
and Hessian is read in it, and ``tangent_basis(p)`` builds what it caches.
The sphere's frame is Gram-Schmidt of the standard basis against p in closed
form, from the tail norms |x[k:]| (``Sphere.tangent_basis``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import ContractError, CutLocusError

POINT_TOL = 1e-12  # ~100x double-precision epsilon
_BASIS_SKIP_TOL = 1e-8  # sphere frame: e_k goes last if |x[k+1:]| <= this * |x[k:]|
_CUT_LOCUS_MARGIN = 1e-6


def _real_array(values, shape=None) -> np.ndarray:
    """``values`` as a float array, read as ``np.asarray(values, dtype=float)``
    reads them; ``ContractError`` unless they are real numbers in a
    rectangular array (of ``shape``, if given)."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind != "c" and shape in (None, arr.shape):  # casting would drop the imaginary part
            return arr.astype(float, copy=False)
    except (TypeError, ValueError):  # not numeric, or ragged
        pass
    shaped = "" if shape is None else f" of shape {shape}"
    raise ContractError(f"coordinates must be real numbers in a rectangular array{shaped}")


def _as_vector(coords, dim: int) -> np.ndarray:
    arr = _real_array(coords)
    if arr.shape != (dim,):
        raise ContractError(f"expected an ambient vector of length {dim}, got shape {arr.shape}")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def unchecked(cls, *values):
    """``cls(*values)`` for a value computed from checked values: the fields
    are set as given, arrays made read-only, and the constructor's checks
    skipped."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with the matching row of ``b``.

    Stacked (1 x n) @ (n x 1) products go through the same BLAS dot as
    ``np.dot`` on two vectors, so entry i equals ``np.dot(a[i], b[i])`` bit
    for bit; ``a @ b`` on the whole stack would use gemv or gemm, which round
    differently.  ``b`` broadcasts: one vector may serve every row.
    """
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def frame_sums(coeffs: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """sum_i coeffs[..., i] frames[..., i, :], summed row after row from zero
    as ``coeffs @ frames`` would not be."""
    return np.add.reduce(coeffs[..., None] * frames, axis=-2, initial=0.0)  # np.sum's ufunc


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, equal to ``np.linalg.norm`` of that row."""
    return np.sqrt(row_dots(a, a))


def unit_rows(a: np.ndarray) -> np.ndarray:
    """Each row divided by its norm.  A norm that is not finite (the row came
    from a tangent vector too long to map) raises ``ContractError``."""
    norms = row_norms(a)[:, None]
    if not (norms < np.inf).all():
        raise ContractError("tangent vector too long to map to the manifold")
    return a / norms


# No numpy warning where a tangent too long to map overflows; the code rejects it.
silent_overflow = np.errstate(over="ignore", invalid="ignore")


@silent_overflow
def scaled_norms(*vectors: np.ndarray) -> tuple[float, ...]:
    """Each norm as np.linalg.norm computes it, then their scale s: 1.0, or
    2^-600 if a sum of squares overflowed.  A power of two scales exactly, so
    a guard comparing s-scaled terms decides as in unbounded range."""
    squares = [v.dot(v) for v in vectors]
    if all(square < math.inf for square in squares):
        return (*map(math.sqrt, squares), 1.0)
    return (*(math.sqrt(w.dot(w)) for w in (2.0 ** -600 * v for v in vectors)), 2.0 ** -600)


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A point on an embedded manifold, held in ambient coordinates."""

    manifold: "Manifold"
    coords: np.ndarray

    def __post_init__(self):
        coords = _as_vector(self.coords, self.manifold.ambient_dim)
        object.__setattr__(self, "coords", coords)
        self.manifold._check_points(coords)

    @property
    def matrix(self) -> np.ndarray:
        """Coordinates reshaped to 3x3 (rotations only)."""
        return self.coords.reshape(3, 3)

    @cached_property
    def frame(self) -> np.ndarray:
        """Orthonormal tangent frame at this point, a read-only
        (intrinsic x ambient) array whose rows are the basis vectors.

        Built by ``manifold.tangent_basis`` on first read and kept with the
        point, so a point pays for one frame however many stencils,
        retractions and operators use it.  The frame is a pure function of
        the coordinates: two threads racing on the first read compute the
        same array.
        """
        frame = self.manifold.tangent_basis(self)
        frame.setflags(write=False)
        return frame


@dataclass(frozen=True, eq=False)
class PointRows:
    """k base points as one stack: ``coords`` (k x ambient), ``matrix``
    (k x 3 x 3), and ``frame[0]`` the first frame row of each."""

    manifold: "Manifold"
    coords: np.ndarray
    frame: np.ndarray

    @classmethod
    def of(cls, points, repeats: int) -> "PointRows":
        """Each point's row ``repeats`` times in turn."""
        coords = np.repeat([pt.coords for pt in points], repeats, axis=0)
        firsts = np.repeat([pt.frame[0] for pt in points], repeats, axis=0)
        return unchecked(cls, points[0].manifold, coords, firsts[None])

    @property
    def matrix(self) -> np.ndarray:
        return self.coords.reshape(-1, 3, 3)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """An element of T_pM, in the same ambient coordinates as its base point."""

    base: ManifoldPoint
    coords: np.ndarray

    @silent_overflow
    def __post_init__(self):
        coords = _as_vector(self.coords, self.base.manifold.ambient_dim)
        object.__setattr__(self, "coords", coords)
        self.base.manifold._check_tangents(self.base, coords)

    @property
    def matrix(self) -> np.ndarray:
        return self.coords.reshape(3, 3)

    def norm(self) -> float:
        """|v| as np.linalg.norm computes it, or 2^600 |2^-600 v| where its squares overflow."""
        norm, s = scaled_norms(self.coords)
        return norm / s

    @silent_overflow  # t v past the float range is inf, rejected below
    def scaled(self, t: float) -> "TangentVector":
        """t v; ``ContractError`` unless t is one real number and t v is finite."""
        coords = _real_array(t, ()) * self.coords
        if not np.isfinite(coords).all():
            raise ContractError("scaled tangent vector is not finite")
        return unchecked(TangentVector, self.base, coords)


class Manifold:
    """Common interface for the embedded manifolds below."""

    intrinsic_dim: int
    ambient_dim: int

    def point(self, coords) -> ManifoldPoint:
        return ManifoldPoint(self, coords)

    def _check_members(self, *points: ManifoldPoint) -> None:
        """Raise ``ContractError`` unless every point lies on this manifold."""
        if any(pt.manifold != self for pt in points):
            raise ContractError(f"point is not on {self!r}")

    # subclass responsibilities -------------------------------------------------

    def _check_points(self, rows: np.ndarray) -> None:
        """Raise ``ContractError`` unless the ambient vector, or every row of a
        (k x ambient) array, is a point of the manifold."""
        raise NotImplementedError

    def _check_tangents(self, p: ManifoldPoint, rows: np.ndarray) -> None:
        """Raise ``ContractError`` unless the ambient vector, or every row of a
        (k x ambient) array, is tangent at p."""
        raise NotImplementedError

    def exp_many(self, p: ManifoldPoint, rows: np.ndarray) -> np.ndarray:
        """Exponential map of every row (a tangent vector at p), as point rows."""
        raise NotImplementedError

    def tangent_project(self, p: ManifoldPoint, w) -> TangentVector:
        raise NotImplementedError

    def exp_map(self, v: TangentVector) -> ManifoldPoint:
        raise NotImplementedError

    def log_many(self, p: ManifoldPoint, rows: np.ndarray) -> np.ndarray:
        """Inverse exponential map of every row (a point), as tangent rows at p."""
        raise NotImplementedError

    def distance_many(self, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """Geodesic distance of each row of ``ps`` (points) to the matching row
        of ``qs``; ``qs`` may be one point row, shared by every row."""
        raise NotImplementedError

    def geodesic_distance(self, p: ManifoldPoint, q: ManifoldPoint) -> float:
        self._check_members(p, q)
        return float(self.distance_many(p.coords[None], q.coords)[0])

    def tangent_basis(self, p: ManifoldPoint) -> np.ndarray:
        """The (intrinsic x ambient) orthonormal frame at p, built anew: ``p.frame`` caches it."""
        raise NotImplementedError


@cache
def _right_of_diagonal(n: int) -> np.ndarray:
    """Read-only (n-1 x n) mask of the entries right of the diagonal."""
    mask = np.arange(n) > np.arange(n - 1)[:, None]
    mask.setflags(write=False)
    return mask


class Sphere(Manifold):
    """Unit sphere S^{n-1} embedded in R^n."""

    def __init__(self, ambient_dim: int):
        if ambient_dim < 2:
            raise ContractError("sphere needs ambient dimension >= 2")
        self.ambient_dim = int(ambient_dim)
        self.intrinsic_dim = self.ambient_dim - 1

    def __repr__(self):
        return f"Sphere({self.ambient_dim})"

    def __eq__(self, other):
        return isinstance(other, Sphere) and other.ambient_dim == self.ambient_dim

    def __hash__(self):
        return hash(("sphere", self.ambient_dim))

    def _check_points(self, rows):
        rows = rows.reshape(-1, self.ambient_dim)
        # an entry above 1 + POINT_TOL (or NaN) fails before its square can overflow
        if not (np.abs(rows).max(initial=0.0) <= 1.0 + POINT_TOL
                and (np.abs(row_norms(rows) - 1.0) <= POINT_TOL).all()):
            raise ContractError("sphere point is not unit length")

    def _check_tangents(self, p, rows):
        rows = rows.reshape(-1, self.ambient_dim)
        dots = np.abs(row_dots(rows, p.coords))  # the norms are read only if a dot passes POINT_TOL
        if not (np.isfinite(rows).all()
                and ((dots <= POINT_TOL).all() or (dots <= POINT_TOL * np.maximum(1.0, row_norms(rows))).all())):
            raise ContractError("vector is not tangent to the sphere at its base point")

    def tangent_project(self, p, w):
        w = _as_vector(w, self.ambient_dim)
        return TangentVector(p, w - np.dot(p.coords, w) * p.coords)

    @silent_overflow
    def exp_map(self, v):
        return unchecked(ManifoldPoint, self, self.exp_many(v.base, v.coords[None])[0])

    def exp_many(self, p, rows):
        """Great-circle step: cos(|v|) p + sin(|v|) v/|v|, continuous at v = 0."""
        n = row_norms(rows)[:, None]
        return unit_rows(np.cos(n) * p.coords + np.sinc(n / np.pi) * rows)

    def distance_many(self, ps, qs):
        # atan2 of (rejection norm, dot) equals arccos of the clamped dot but
        # stays accurate when the separation is far below sqrt(eps).
        c = row_dots(ps, qs)
        return np.arctan2(row_norms(qs - c[:, None] * ps), c)

    def log_many(self, p, rows):
        """theta/s times the rejection of q from p (of norm s), or the rejection below s = 1e-12."""
        c = row_dots(p.coords, rows)
        rej = rows - c[:, None] * p.coords
        s = row_norms(rej)
        theta = np.arctan2(s, c)
        if (theta >= np.pi - _CUT_LOCUS_MARGIN).any():
            raise CutLocusError("points are antipodal or too close to the cut locus")
        out = rej * np.where(s < 1e-12, 1.0, theta / np.maximum(s, 1e-12))[:, None]
        try:  # within ~1e-4 of pi, theta/s magnifies the rounding of the rejection past tangency
            self._check_tangents(p, out)
        except ContractError:
            raise CutLocusError("points are antipodal or too close to the cut locus") from None
        return out

    def tangent_basis(self, p):
        """Row k is the unit part of e_k orthogonal to p, e_0, ..., e_{k-1}: with
        s_k = |x[k:]|, zero before column k, s_{k+1}/s_k at column k and
        -(x_k/s_k)(x_j/s_{k+1}) at column j > k.  The first e_k with s_{k+1} at
        most _BASIS_SKIP_TOL * s_k (nearly in that span) goes last, unused.
        ``hypot`` forms s_k and each factor is at most 1, so nothing is squared.
        """
        x = p.coords
        n = self.ambient_dim
        tails = np.hypot.accumulate(np.abs(x[::-1]))[::-1]
        short = np.flatnonzero(tails[1:] <= _BASIS_SKIP_TOL * tails[:-1])
        if short.size:
            order = np.append(np.delete(np.arange(n), short[0]), short[0])
            x = x[order]
            tails = np.hypot.accumulate(np.abs(x[::-1]))[::-1]
        upper = np.where(_right_of_diagonal(n), x, 0.0) / tails[1:, None]
        frame = upper * (-x[:-1] / tails[:-1])[:, None]
        frame.flat[:: n + 1] = tails[1:] / tails[:-1]  # the diagonal
        if short.size:
            frame[:, order] = frame.copy()
        return frame


# Canonical so(3) generators, Frobenius norm sqrt(2) each.
SO3_GENERATORS = (
    np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
    np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
    np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
)


def hat(omega) -> np.ndarray:
    """Three real numbers to a skew-symmetric matrix."""
    x, y, z = _real_array(omega, (3,))
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def vee(mat) -> np.ndarray:
    """Inverse of :func:`hat` (reads the strictly lower triangle); a
    (k x 3 x 3) stack gives k rows, complex if the stack is."""
    mat = np.asarray(mat)
    mat = mat.astype(np.result_type(mat, np.float64), copy=False)
    return np.stack([mat[..., 2, 1], mat[..., 0, 2], mat[..., 1, 0]], axis=-1)


@silent_overflow
def rotation_exp(omega_hat: np.ndarray) -> np.ndarray:
    """Matrix exponential of one finite real 3x3 matrix W, skew to the tangent
    check's relative tolerance: |W + W^T| <= POINT_TOL max(1, |W|)."""
    w = _real_array(omega_hat, (3, 3))
    if not (np.isfinite(w).all() and np.linalg.norm(w + w.T) <= POINT_TOL * max(1.0, np.linalg.norm(w))):
        raise ContractError("expected a finite skew-symmetric 3x3 matrix")
    return rotation_exp_many(w[None])[0]


def rotation_exp_many(omega_hats: np.ndarray) -> np.ndarray:
    """Rodrigues form of expm on so(3) for each matrix in a (k x 3 x 3)
    stack, stable for all angles."""
    theta = row_norms(vee(omega_hats))[:, None, None]
    if not (theta < np.inf).all():
        raise ContractError("rotation angle is not finite")
    a = np.sinc(theta / np.pi)  # sin(theta)/theta
    # (1 - cos(theta))/theta^2.  float_power calls the C library pow, as **
    # on a float64 scalar does; ** on an array squares by multiplication,
    # which rounds differently
    b = 0.5 * np.float_power(np.sinc(theta / (2.0 * np.pi)), 2)
    return np.eye(3) + a * omega_hats + b * (omega_hats @ omega_hats)


def rotation_angles(rots: np.ndarray) -> np.ndarray:
    """Rotation angle in [0, pi] of each matrix in a (k x 3 x 3) stack,
    accurate near zero."""
    skew = 0.5 * (rots - rots.transpose(0, 2, 1))
    s = row_norms(vee(skew))  # |sin(angle)|
    c = 0.5 * (np.trace(rots, axis1=1, axis2=2) - 1.0)
    return np.arctan2(s, c)


class Rotations3(Manifold):
    """Rotation group SO(3); ambient coordinates are row-major flattened 3x3
    matrices and the metric is trace(U^T V)."""

    ambient_dim = 9
    intrinsic_dim = 3

    def __repr__(self):
        return "Rotations3()"

    def __eq__(self, other):
        return isinstance(other, Rotations3)

    def __hash__(self):
        return hash("rotations3")

    def point_from_matrix(self, mat) -> ManifoldPoint:
        return ManifoldPoint(self, _real_array(mat).reshape(-1))  # a wrong size fails the length check

    def identity(self) -> ManifoldPoint:
        return self.point_from_matrix(np.eye(3))

    def _check_points(self, rows):
        q = rows.reshape(-1, 3, 3)
        # an entry above 1 + POINT_TOL (or NaN) fails before its square can overflow
        if not np.abs(q).max(initial=0.0) <= 1.0 + POINT_TOL:
            raise ContractError("matrix is not orthogonal")
        gram = q.transpose(0, 2, 1) @ q - np.eye(3)
        if not (row_norms(gram.reshape(-1, 9)) <= POINT_TOL).all():
            raise ContractError("matrix is not orthogonal")
        if (np.linalg.det(q) <= 0).any():
            raise ContractError("matrix has non-positive determinant")

    def _check_tangents(self, p, rows):
        rows = rows.reshape(-1, 9)
        if not np.isfinite(rows).all():
            raise ContractError("Q^T V is not skew-symmetric")
        body = p.matrix.swapaxes(-1, -2) @ rows.reshape(-1, 3, 3)
        sym = row_norms((body + body.transpose(0, 2, 1)).reshape(-1, 9))
        if not ((sym <= POINT_TOL).all() or (sym <= POINT_TOL * np.maximum(1.0, row_norms(rows))).all()):
            raise ContractError("Q^T V is not skew-symmetric")

    def tangent_project(self, p, w):
        q = p.matrix
        body = q.T @ _as_vector(w, 9).reshape(3, 3)
        skew = 0.5 * (body - body.T)
        return TangentVector(p, (q @ skew).reshape(9))

    @silent_overflow
    def exp_map(self, v):
        return unchecked(ManifoldPoint, self, self.exp_many(v.base, v.coords[None])[0])

    def exp_many(self, p, rows):
        q = p.matrix
        body = q.swapaxes(-1, -2) @ rows.reshape(-1, 3, 3)
        body = 0.5 * (body - body.transpose(0, 2, 1))
        return (q @ rotation_exp_many(body)).reshape(-1, 9)

    def distance_many(self, ps, qs):
        rels = ps.reshape(-1, 3, 3).transpose(0, 2, 1) @ qs.reshape(-1, 3, 3)
        return np.sqrt(2.0) * rotation_angles(rels)

    @silent_overflow  # theta / sin(theta) at theta = 0, where the series is taken
    def log_many(self, p, rows):
        """Rodrigues' principal log of Q^T R mapped back to T_Q, with a series below angle 1e-4."""
        rels = p.matrix.swapaxes(-1, -2) @ rows.reshape(-1, 3, 3)
        theta = rotation_angles(rels)
        if (theta >= np.pi - _CUT_LOCUS_MARGIN).any():
            raise CutLocusError("rotation angle too close to pi for a stable logarithm")
        series = 1.0 + np.float_power(theta, 2) / 6.0 + 7.0 * np.float_power(theta, 4) / 360.0  # pow, as ** on floats
        factor = np.where(theta < 1e-4, series, theta / np.sin(theta))[:, None, None]
        return (p.matrix @ (factor * (0.5 * (rels - rels.transpose(0, 2, 1))))).reshape(-1, 9)

    def tangent_basis(self, p):
        q = p.matrix
        return np.array([(q @ gen).reshape(9) / np.sqrt(2.0) for gen in SO3_GENERATORS])
