"""Deterministic random instances for experiments and tests.

Everything here draws from numpy's PCG64 generator seeded explicitly, so a
seed pins the full experiment byte-for-byte.  Rayleigh matrices whose
eigenvalue gaps fall below 1e-3 are resampled at seed+1, seed+2, ... to keep
Hessians at the target critical points comfortably invertible.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, ContractError
from .manifolds import (
    Manifold,
    ManifoldPoint,
    Rotations3,
    Sphere,
    TangentVector,
    hat,
    rotation_exp,
)
from .objectives import ProcrustesTrace, Rayleigh
from .rates import DEFAULT_SCALES, ScaleSweep

EIGENGAP_MIN = 1e-3
_TANGENT_DRAWS = 8
PROCRUSTES_SINGULAR_VALUES = (2.0, 1.5, 1.0)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(int(seed)))


def random_point(manifold: Manifold, rng: np.random.Generator) -> ManifoldPoint:
    if isinstance(manifold, Sphere):
        x = rng.standard_normal(manifold.ambient_dim)
        return manifold.point(x / np.linalg.norm(x))
    if isinstance(manifold, Rotations3):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, np.pi)
        return manifold.point_from_matrix(rotation_exp(hat(angle * axis)))
    raise ConfigurationError(f"cannot sample points on {manifold!r}")


def random_tangent(p: ManifoldPoint, rng: np.random.Generator) -> TangentVector:
    """A standard normal draw projected to T_pM and scaled to unit norm.  A
    draw whose projection is rounding noise (a sphere point's own draw) is
    drawn again; ``ContractError`` after _TANGENT_DRAWS."""
    for _ in range(_TANGENT_DRAWS):
        v = p.manifold.tangent_project(p, rng.standard_normal(p.manifold.ambient_dim))
        try:
            return TangentVector(p, (1.0 / v.norm()) * v.coords)  # checked: scaled-up rounding noise is not tangent
        except (ZeroDivisionError, ContractError):
            pass
    raise ContractError(f"no tangent direction in {_TANGENT_DRAWS} draws")


def make_sweep(
    p: ManifoldPoint,
    n_directions: int,
    seed: int,
    scales=DEFAULT_SCALES,
) -> ScaleSweep:
    """Sweep with seeded unit directions at p."""
    rng = rng_for(seed)
    dirs = tuple(random_tangent(p, rng) for _ in range(n_directions))
    return ScaleSweep(directions=dirs, scales=tuple(scales))


def _rayleigh_candidate(seed: int, n: int) -> np.ndarray:
    rng = rng_for(seed)
    b = rng.uniform(-1.0, 1.0, size=(n, n))
    return 0.5 * (b + b.T)


def seeded_instance(seed: int, kind: str, n: int = 3):
    """Reproducible objective instance.

    ``rayleigh``: A = (B + B^T)/2 with B entries iid uniform[-1, 1]; resampled
    deterministically while the smallest eigenvalue gap is below 1e-3.
    ``procrustes``: A = R diag(2, 1.5, 1) with R a seeded rotation, so the
    polar factor (the optimum) is R itself.
    """
    if kind == "rayleigh":
        if n < 2:
            raise ContractError("rayleigh instances need n >= 2")
        attempt = int(seed)
        while True:
            a = _rayleigh_candidate(attempt, n)
            eigs = np.linalg.eigvalsh(a)
            if np.min(np.diff(eigs)) > EIGENGAP_MIN:
                return Rayleigh(a)
            attempt += 1
    if kind == "procrustes":
        rot = random_point(Rotations3(), rng_for(seed)).matrix
        return ProcrustesTrace(rot @ np.diag(PROCRUSTES_SINGULAR_VALUES))
    raise ConfigurationError(f"unknown objective kind {kind!r}")


def rayleigh_top_eigenvector(objective: Rayleigh) -> ManifoldPoint:
    """Eigenvector of the largest eigenvalue: the critical point the seeded
    Newton experiments aim for.  Sign fixed by the largest-magnitude entry."""
    _, vecs = np.linalg.eigh(objective.matrix)
    v = vecs[:, -1]
    lead = np.argmax(np.abs(v))
    if v[lead] < 0:
        v = -v
    return Sphere(objective.matrix.shape[0]).point(v)
