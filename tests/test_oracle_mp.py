"""Every derivative read against the 50-digit pullback oracle: the error table.

Each read (``gradient_fd`` at the default and the refined step,
``gradient_cs``, ``hessian_fd``, ``derivatives_cs``'s gradient and Hessian,
``derivatives_fd``'s gradient and Hessian) is compared with
``oracle_mp.pullback_derivatives`` at a non-critical point on sphere:2, 3, 4
and 10 under exp, projection and perturbed, with the Rayleigh and tilted
quadratics, and on SO(3) under exp and cayley, with the Procrustes and
Brockett costs; J is scaled by c = 1e-6, 1 and 1e6.  The error is relative:
|read - truth| / |truth|, the gradient in ``p.frame`` coordinates and the
Hessian in the Frobenius norm.

Each bound was set on the tuning seed (seed 0: the worst error there times 4,
rounded up to one significant digit) and is confirmed on the held-out seed
(seed 1); the test asserts both.  The seed draws every instance and point.

The float oracle of ``tests/oracles.py`` is checked against the same 50-digit
values: it is the pullback Hessian under exp, projection and cayley at every
point, and under the order-1 perturbed family only at a critical point; away
from one, the perturbed pullback Hessian is the Riemannian one plus
2 <grad, u> I (u the frame's first row), a gap no other test shows.
"""

import numpy as np
import pytest

pytest.importorskip("mpmath")

import geonewton as gn  # noqa: E402
import oracle_mp  # noqa: E402
from geonewton.calculus import (  # noqa: E402
    REFINED_GRADIENT_STEP_FACTOR,
    derivatives_cs,
    derivatives_fd,
    gradient_cs,
    gradient_fd,
    hessian_fd,
)
from geonewton.manifolds import row_dots  # noqa: E402
from oracles import riemannian_hessian  # noqa: E402

TUNING_SEED, HELD_OUT_SEED = 0, 1
SPHERE_SIZES = (2, 3, 4, 10)
SPHERE_FAMILIES = ("exp", "projection", "perturbed")
SO3_FAMILIES = ("exp", "cayley")
SCALES = (1e-6, 1.0, 1e6)

# read: the worst relative error on the tuning seed times 4, one significant digit up
BOUNDS = {
    "gradient_fd": 4e-9,
    "gradient_fd_refined": 5e-5,
    "gradient_cs": 7e-15,
    "hessian_fd": 8e-7,
    "derivatives_cs_gradient": 7e-15,
    "derivatives_cs_hessian": 9e-10,
    "derivatives_fd_gradient": 4e-9,
    "derivatives_fd_hessian": 8e-7,
}
FLOAT_ORACLE_TOL = 1e-14  # relative: tests/oracles.py against the 50-digit pullback Hessian


def _objectives(manifold, rng, seed):
    """The manifold's two objective families, drawn from rng (and the seed's Rayleigh matrix)."""
    if isinstance(manifold, gn.Rotations3):
        rotation = gn.random_point(manifold, rng).matrix
        return (gn.ProcrustesTrace(rotation @ np.diag(rng.uniform(0.5, 2.0, 3))),
                gn.Brockett(rotation, np.sort(rng.uniform(-1.0, 1.0, 3))[::-1], np.sort(rng.uniform(-1.0, 1.0, 3))))
    a = gn.seeded_instance(seed, "rayleigh", manifold.ambient_dim).matrix
    return gn.Rayleigh(a), gn.TiltedRayleigh(a, rng.uniform(-1.0, 1.0, manifold.ambient_dim))


def _manifolds():
    return [(gn.Sphere(n), SPHERE_FAMILIES) for n in SPHERE_SIZES] + [(gn.Rotations3(), SO3_FAMILIES)]


@pytest.fixture(scope="module")
def table():
    """(seed, objective, family, point, (g, H)) for every case: the oracle
    computed once per objective, family and point."""
    rows = []
    for seed in (TUNING_SEED, HELD_OUT_SEED):
        for manifold, families in _manifolds():
            rng = gn.rng_for(100 * seed + manifold.ambient_dim)
            objectives = _objectives(manifold, rng, seed)
            p = gn.random_point(manifold, rng)
            for objective in objectives:
                for family in families:
                    rows.append((seed, objective, family, p, oracle_mp.pullback_derivatives(objective, family, p)))
    return rows


def _reads(objective, spec, p):
    """Every read of the gradient (frame coordinates) and Hessian at p."""
    cs_gradient, cs_hessian = derivatives_cs(objective, spec, p)
    fd_gradients, fd_hessians, _ = derivatives_fd(objective, spec, [p])
    return {
        "gradient_fd": row_dots(p.frame, gradient_fd(objective, spec, p).coords),
        "gradient_fd_refined": row_dots(p.frame, gradient_fd(objective, spec, p, REFINED_GRADIENT_STEP_FACTOR).coords),
        "gradient_cs": row_dots(p.frame, gradient_cs(objective, spec, p).coords),
        "hessian_fd": hessian_fd(objective, spec, p).matrix,
        "derivatives_cs_gradient": row_dots(p.frame, cs_gradient.coords),
        "derivatives_cs_hessian": cs_hessian.matrix,
        "derivatives_fd_gradient": row_dots(p.frame, fd_gradients[0]),
        "derivatives_fd_hessian": fd_hessians[0],
    }


def _relative(read, truth):
    return float(np.linalg.norm(read - truth) / np.linalg.norm(truth))


@pytest.fixture(scope="module")
def errors(table, scaled):
    """Worst relative error of every read on each seed, over every case and scale."""
    worst = {}
    for seed, objective, family, p, (g, h) in table:
        for scale in SCALES:
            reads = _reads(scaled(objective, scale), gn.RetractionSpec(family), p)
            for name, read in reads.items():
                truth = scale * (h if "hessian" in name else g)
                key = (name, seed)
                worst[key] = max(worst.get(key, 0.0), _relative(read, truth))
    return worst


@pytest.mark.parametrize("seed", [TUNING_SEED, HELD_OUT_SEED], ids=["tuning", "held-out"])
@pytest.mark.parametrize("read", list(BOUNDS))
def test_read_error_is_under_its_bound(errors, read, seed):
    assert errors[(read, seed)] <= BOUNDS[read]


def test_oracle_gradient_is_the_analytic_gradient(table):
    # D R_p(0) = id for every family, so the pullback gradient is the
    # Riemannian one whatever the family
    for _, objective, _, p, (g, _) in table:
        exact = row_dots(p.frame, objective.analytic_gradient(p).coords)
        assert np.linalg.norm(g - exact) <= 1e-14 * np.linalg.norm(exact)


def test_float_oracle_is_the_pullback_hessian_of_every_order2_family(table):
    for _, objective, family, p, (_, h) in table:
        if family != "perturbed":
            assert _relative(riemannian_hessian(objective, p), h) <= FLOAT_ORACLE_TOL


def test_float_oracle_misses_the_perturbed_pullback_hessian_off_critical_points(table):
    # R_p(v) = normalize(p + v + |v|^2 u) adds 2 <grad, u> I to the Hessian;
    # at these points the gap is far above the reads' errors
    for _, objective, family, p, (g, h) in table:
        if family == "perturbed":
            riemannian = riemannian_hessian(objective, p)
            gap = 2.0 * g[0] * np.eye(len(g))
            assert np.linalg.norm(gap) >= 1e-3 * np.linalg.norm(h)
            assert np.linalg.norm(h - riemannian - gap) <= FLOAT_ORACLE_TOL * np.linalg.norm(h)


@pytest.fixture(scope="module")
def critical_table():
    """(objective, point, (g, H)) under perturbed at a critical point of each
    sphere objective of the tuning seed."""
    rows = []
    for n in SPHERE_SIZES:
        for objective in _objectives(gn.Sphere(n), gn.rng_for(100 * TUNING_SEED + n), TUNING_SEED):
            p = gn.rayleigh_top_eigenvector(objective) if objective.kind == "rayleigh" else objective.minimizer()
            rows.append((objective, p, oracle_mp.pullback_derivatives(objective, "perturbed", p)))
    return rows


def test_float_oracle_is_the_perturbed_pullback_hessian_at_critical_points(critical_table):
    for objective, p, (g, h) in critical_table:
        assert np.linalg.norm(g) <= 1e-14 * np.linalg.norm(h)
        assert _relative(riemannian_hessian(objective, p), h) <= FLOAT_ORACLE_TOL
