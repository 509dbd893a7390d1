"""Empirical order-of-accuracy measurements via log-log slope regression.

Each measurement walks a decreasing ladder of scales, records one
nonnegative quantity per (direction, scale), and fits a least-squares line
through the surviving (log x, log y) points.  Values at or below the noise
floor are discarded before fitting; when fewer than two points survive the
estimate is flagged ``saturated`` rather than treated as a failure (a perfect
retraction legitimately measures zero everywhere).

Each sweep returns its rows and its slope is :func:`fit_rows` of them, so a
report's summary is a refit of its rows.  A trace's rate is
:func:`rate_from_errors` of its distances to the critical point.

Every sweep makes one batched call per map over all its rows (a
:class:`ScaleSweep` lists them with ``tangent_rows``); each kernel row equals
its one-row call bit for bit.  The residual sweep inverts each row at its
own base, then probes all its points at once (``derivatives_fd``, one batch
below its size limit).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .calculus import apply_many, derivatives_fd, taylor_remainders
from .calculus import gradient_fd, hessian_fd, taylor_remainder  # noqa: F401  the benchmark tracer checks these
from .errors import ContractError, InsufficientDataError, PreconditionError
from .manifolds import ManifoldPoint, PointRows, TangentVector, row_norms, unchecked
from .retractions import RetractionSpec, _inverse_rows, _retract_rows
from .retractions import inverse_retract, retract  # noqa: F401  not called; the benchmark tracer checks them

DEFAULT_SCALES = tuple(2.0 ** (-k) for k in range(2, 13))
DEFAULT_NOISE_FLOOR = 1e-13

Row = tuple[int, float, float]  # (direction_id, x, y)


def checked_scales(scales) -> tuple[float, ...]:
    """The scales as floats: at least one, each positive and finite, strictly decreasing."""
    scales = tuple(float(s) for s in scales)
    if not scales:
        raise ContractError("sweep needs at least one scale")
    if not all(0 < s < math.inf for s in scales):  # NaN fails too
        raise ContractError("scales must be positive and finite")
    if any(a <= b for a, b in zip(scales, scales[1:])):
        raise ContractError("scales must be strictly decreasing")
    return scales


@dataclass(frozen=True)
class ScaleSweep:
    """A ladder of scales and the unit tangent directions to probe."""

    directions: tuple[TangentVector, ...]
    scales: tuple[float, ...] = DEFAULT_SCALES

    def __post_init__(self):
        object.__setattr__(self, "directions", tuple(self.directions))
        if not self.directions:
            raise ContractError("sweep needs at least one direction")
        object.__setattr__(self, "scales", checked_scales(self.scales))
        base = self.directions[0].base
        for d in self.directions:
            if abs(d.norm() - 1.0) > 1e-10:
                raise ContractError("sweep directions must be unit norm")
            if not np.array_equal(d.base.coords, base.coords):
                raise ContractError("sweep directions must share one base point")

    def tangent_rows(self) -> tuple[list[tuple[int, float]], np.ndarray]:
        """(direction id, scale) of every row, direction by direction, and the (rows x ambient) s w."""
        labels = list(itertools.product(range(len(self.directions)), self.scales))
        return labels, np.array([s * self.directions[i].coords for i, s in labels])


@dataclass(frozen=True)
class SlopeEstimate:
    """Fitted exponent of a power law, with the log-intercept (the implicit
    constant) and fit quality."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int
    saturated: bool

    @property
    def constant(self) -> float:
        return math.exp(self.intercept)


@dataclass(frozen=True)
class RateReport:
    """The error pairs (e_k, e_k+1) a trace's rate fit used, with the slopes."""

    pairs: tuple[tuple[float, float], ...]
    pair_slopes: tuple[float, ...]
    fitted_rate: float
    fitted_constant: float
    pairs_used: int


def fit_loglog(xs, ys, floor: float = DEFAULT_NOISE_FLOOR) -> SlopeEstimate:
    """Least-squares line through (log x, log y) for the points with y above
    the floor.  Saturated when fewer than two points, or two distinct x,
    survive."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ContractError("xs and ys must be 1-d arrays of equal length")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ContractError("xs and ys must be finite")
    if np.any(xs <= 0):
        raise ContractError("xs must be strictly positive")
    if np.any(ys < 0):
        raise ContractError("ys must be nonnegative")
    mask = ys > floor
    used = int(mask.sum())
    if used < 2 or np.ptp(xs[mask]) == 0:
        return SlopeEstimate(
            slope=float("nan"),
            intercept=float("nan"),
            r_squared=0.0,
            points_used=used,
            saturated=True,
        )
    lx = np.log(xs[mask])
    ly = np.log(ys[mask])
    design = np.column_stack([lx, np.ones_like(lx)])
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    pred = design @ np.array([slope, intercept])
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    r_squared = min(1.0, max(0.0, r_squared))
    return SlopeEstimate(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        points_used=used,
        saturated=False,
    )


def fit_rows(rows: list[Row], floor: float = DEFAULT_NOISE_FLOOR) -> SlopeEstimate:
    """Fit pooled (x, y) rows, ignoring the direction id column."""
    xs = [r[1] for r in rows]
    ys = [r[2] for r in rows]
    return fit_loglog(xs, ys, floor)


# --------------------------------------------------------------------------
# retraction order


def retraction_order_rows(spec: RetractionSpec, sweep: ScaleSweep) -> list[Row]:
    """d(R_p(s w), exp_p(s w)) for every direction w and scale s, direction
    by direction: slope k + 1 for order k, saturated for exp."""
    p = sweep.directions[0].base
    manifold = p.manifold
    labels, tangents = sweep.tangent_rows()
    retracted = _retract_rows(spec, p, tangents)
    with np.errstate(over="ignore", invalid="ignore"):  # as in exp_map: a row too long to map raises
        exact = manifold.exp_many(p, tangents)
    return [(i, s, d) for (i, s), d in zip(labels, manifold.distance_many(retracted, exact).tolist())]


# --------------------------------------------------------------------------
# residual of the linearized gradient at a critical point


def critical_residual_rows(objective, spec: RetractionSpec, sweep: ScaleSweep) -> list[Row]:
    """|grad J(p) + Hess J(p) v| against |v|, where p walks away from the
    critical anchor point and v points back: anchor = R_p(v).

    The sweep directions must be based at the anchor, and the anchor critical:
    its analytic gradient at most 1e-10 times the largest entry of the sweep's
    Hessians (a bound that scales with J and ignores a constant added to it;
    checked after the sweep, which reads them).  Slope 2 for order >= 1.
    """
    anchor = sweep.directions[0].base
    labels, tangents = sweep.tangent_rows()
    points = [unchecked(ManifoldPoint, anchor.manifold, row) for row in _retract_rows(spec, anchor, tangents)]
    vs = _inverse_rows(spec, PointRows.of(points, 1), anchor.coords[None])
    grads, hessians, frames = derivatives_fd(objective, spec, points)
    if not objective.analytic_gradient(anchor).norm() <= 1e-10 * np.abs(hessians).max():
        raise PreconditionError("residual sweep must be anchored at a critical point")
    residuals = row_norms(grads + apply_many(hessians, frames, vs))
    return [(i, x, r) for (i, _), x, r in zip(labels, row_norms(vs).tolist(), residuals.tolist())]


# --------------------------------------------------------------------------
# distance deviation between two retracted rays


def distance_deviation_rows(
    spec: RetractionSpec,
    v_dir: TangentVector,
    w_dir: TangentVector,
    scales=DEFAULT_SCALES,
) -> list[Row]:
    """| d(R_p(s v), R_p(s w)) - s |v - w| | per scale, one direction pair;
    slope >= 2."""
    p = v_dir.base
    manifold = p.manifold
    if not np.array_equal(w_dir.base.coords, p.coords):
        raise ContractError("direction pair must share one base point")
    gap = float(np.linalg.norm(v_dir.coords - w_dir.coords))
    scales = checked_scales(scales)
    tangents = np.array([s * d.coords for d in (v_dir, w_dir) for s in scales]).reshape(-1, manifold.ambient_dim)
    dists = manifold.distance_many(*np.split(_retract_rows(spec, p, tangents), 2))
    return [(0, s, abs(d - s * gap)) for s, d in zip(scales, dists.tolist())]


# --------------------------------------------------------------------------
# cubic remainder of the second-order expansion


def taylor_remainder_rows(objective, spec: RetractionSpec, sweep: ScaleSweep) -> list[Row]:
    """Second-order Taylor remainder of J o R_p against |v|; one gradient and
    Hessian extraction (one ``derivatives_fd`` batch) is shared across the
    whole sweep.  Slope 3, or saturated at a critical point."""
    p = sweep.directions[0].base
    grads, hessians, frames = derivatives_fd(objective, spec, [p])
    labels, tangents = sweep.tangent_rows()
    rems = taylor_remainders(objective, spec, p, tangents, grads[0], hessians[0], frames[0])
    return [(i, s, r) for (i, s), r in zip(labels, rems.tolist())]


# --------------------------------------------------------------------------
# contraction rate of an iteration trace


def rate_from_errors(errors, floor: float = DEFAULT_NOISE_FLOOR) -> RateReport:
    """Fit log e_{k+1} against log e_k over the consecutive pairs with both
    entries above the floor.  A pair with e_k = 1 has a non-finite slope."""
    errors = [float(e) for e in errors]
    if not all(math.isfinite(e) for e in errors):
        raise ContractError("errors must be finite")
    pairs = [
        (errors[k], errors[k + 1])
        for k in range(len(errors) - 1)
        if errors[k] > floor and errors[k + 1] > floor
    ]
    fit = fit_loglog([a for a, _ in pairs], [b for _, b in pairs], floor)
    if fit.saturated:
        raise InsufficientDataError("need at least two usable error pairs, with distinct e_k, to fit a rate")
    with np.errstate(divide="ignore", invalid="ignore"):  # log 1 = 0
        slopes = tuple(float(np.log(b) / np.log(a)) for a, b in pairs)
    return RateReport(
        pairs=tuple(pairs),
        pair_slopes=slopes,
        fitted_rate=fit.slope,
        fitted_constant=float(np.exp(fit.intercept)),
        pairs_used=len(pairs),
    )

