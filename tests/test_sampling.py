import numpy as np
import pytest

import geonewton as gn
from geonewton.manifolds import POINT_TOL


def test_same_seed_same_instance():
    a = gn.seeded_instance(7, "rayleigh", 4)
    b = gn.seeded_instance(7, "rayleigh", 4)
    assert np.array_equal(a.matrix, b.matrix)


def test_rayleigh_symmetric_by_construction():
    for seed in range(10):
        a = gn.seeded_instance(seed, "rayleigh", 3).matrix
        assert np.linalg.norm(a - a.T) == 0.0


def test_rayleigh_eigengap_guarantee():
    for seed in range(25):
        a = gn.seeded_instance(seed, "rayleigh", 3).matrix
        eigs = np.linalg.eigvalsh(a)
        assert np.min(np.diff(eigs)) > 1e-3


def test_seed42_instance_has_clear_gap():
    eigs = np.linalg.eigvalsh(gn.seeded_instance(42, "rayleigh", 3).matrix)
    assert np.min(np.diff(eigs)) > 1e-3


def test_procrustes_instance_structure():
    objective = gn.seeded_instance(11, "procrustes")
    a = objective.matrix
    # A = R diag(2, 1.5, 1): singular values fixed, polar factor orthogonal
    assert np.allclose(np.linalg.svd(a, compute_uv=False), [2.0, 1.5, 1.0], atol=1e-12)
    polar = objective.polar_factor()
    assert np.allclose(polar.matrix @ np.diag([2.0, 1.5, 1.0]), a, atol=1e-12)


def test_unknown_kind_rejected():
    with pytest.raises(gn.ConfigurationError):
        gn.seeded_instance(0, "quartic")


def test_random_point_valid(sphere3, rotations):
    rng = gn.rng_for(1)
    for manifold in (sphere3, rotations):
        for _ in range(5):
            gn.random_point(manifold, rng)  # constructors validate


def test_random_tangent_unit_and_tangent(sphere3):
    rng = gn.rng_for(2)
    p = gn.random_point(sphere3, rng)
    v = gn.random_tangent(p, rng)
    assert v.norm() == pytest.approx(1.0, abs=1e-12)


def test_random_tangent_at_a_point_drawn_from_the_same_seed_is_tangent():
    # make_sweep(p, k, s) with p drawn from seed s: the first normal draw is
    # the one that made p, so its projection is rounding noise (or exactly
    # zero); that draw is replaced by the next one, never scaled up
    for n in (3, 10, 20):
        sphere = gn.Sphere(n)
        for seed in range(40):
            p = gn.random_point(sphere, gn.rng_for(seed))
            try:
                v = gn.random_tangent(p, gn.rng_for(seed))
            except gn.ContractError:
                continue
            assert abs(float(p.coords @ v.coords)) <= POINT_TOL
            assert v.norm() == pytest.approx(1.0, abs=1e-12)
            w = sphere.tangent_project(p, gn.rng_for(seed).standard_normal((2, n))[1])
            assert np.array_equal(v.coords, (1.0 / w.norm()) * w.coords)


def test_random_tangent_raises_when_every_draw_is_normal(sphere3):
    class Normal:
        def standard_normal(self, size):
            return 2.0 * p.coords

    p = gn.random_point(sphere3, gn.rng_for(3))
    with pytest.raises(gn.ContractError, match="no tangent direction"):
        gn.random_tangent(p, Normal())
    assert p.manifold.tangent_project(p, Normal().standard_normal(3)).norm() <= 1e-15


def test_top_eigenvector_is_critical():
    objective = gn.seeded_instance(42, "rayleigh", 3)
    p = gn.rayleigh_top_eigenvector(objective)
    assert objective.analytic_gradient(p).norm() <= 1e-12
    assert objective.value(p) == pytest.approx(np.linalg.eigvalsh(objective.matrix)[-1], abs=1e-12)
