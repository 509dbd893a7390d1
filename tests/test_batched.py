"""The batched finite-difference stencils must reproduce the single-probe
path exactly.

Tolerance-based accuracy tests do not notice a last-ulp change in a probe
value, but the noise-floor-limited sweeps (lemma1 on even pullbacks) move
visibly when it happens.  Every comparison here is therefore exact
(``np.array_equal`` or ``==``) against a per-probe loop kept in this file:
retract one tangent vector, evaluate ``value`` at the point.
"""

import numpy as np
import pytest

import geonewton as gn
from geonewton.calculus import GRADIENT_STEP_FACTOR, HESSIAN_STEP_FACTOR, REFINED_GRADIENT_STEP_FACTOR
from geonewton.manifolds import row_dots

SPHERE_SIZES = (2, 3, 10, 20, 50)
SPHERE_FAMILIES = ("exp", "projection", "perturbed")
SO3_FAMILIES = ("exp", "cayley")


def _sphere_objectives(n):
    rng = gn.rng_for(500 + n)
    a = gn.seeded_instance(n, "rayleigh", n=n).matrix
    return (gn.Rayleigh(a), gn.TiltedRayleigh(a, rng.uniform(-1.0, 1.0, n)))


def _so3_objectives():
    procrustes = gn.seeded_instance(42, "procrustes")
    rot = procrustes.polar_factor().matrix
    return (procrustes, gn.Brockett(rot, (3.0, 2.0, 1.0), (1.0, 2.0, 4.0)))


def _cases():
    """(manifold, family, objective) for every pairing at every size."""
    for n in SPHERE_SIZES:
        for family in SPHERE_FAMILIES:
            for objective in _sphere_objectives(n):
                yield pytest.param(gn.Sphere(n), family, objective, id=f"sphere{n}-{family}-{objective.kind}")
    for family in SO3_FAMILIES:
        for objective in _so3_objectives():
            yield pytest.param(gn.Rotations3(), family, objective, id=f"so3-{family}-{objective.kind}")


CASES = list(_cases())


def _base_point(manifold, seed):
    return gn.random_point(manifold, gn.rng_for(seed))


def _tangent_rows(p, seed, count=12):
    """Tangent vectors at p from 1e-7 to 0.5 in length, plus the zero vector."""
    rng = gn.rng_for(seed)
    rows = [np.zeros(p.manifold.ambient_dim)]
    for length in np.geomspace(1e-7, 0.5, count):
        rows.append(length * gn.random_tangent(p, rng).coords)
    return np.array(rows)


def _scalar_probe(objective, spec, p, coords):
    return objective.value(gn.retract(spec, gn.TangentVector(p, coords)))


def _scalar_gradient(objective, spec, p, basis, h):
    ambient = np.zeros(p.manifold.ambient_dim)
    for vec in basis.vectors:
        plus = _scalar_probe(objective, spec, p, h * vec.coords)
        minus = _scalar_probe(objective, spec, p, -h * vec.coords)
        ambient += ((plus - minus) / (2.0 * h)) * vec.coords
    return ambient


def _scalar_hessian(objective, spec, p, basis):
    h = HESSIAN_STEP_FACTOR
    dim = len(basis)
    out = np.empty((dim, dim))
    for i in range(dim):
        ei = basis.vectors[i].coords
        for j in range(i, dim):
            ej = basis.vectors[j].coords
            pp = _scalar_probe(objective, spec, p, h * ei + h * ej)
            pm = _scalar_probe(objective, spec, p, h * ei - h * ej)
            mp = _scalar_probe(objective, spec, p, -h * ei + h * ej)
            mm = _scalar_probe(objective, spec, p, -h * ei - h * ej)
            out[i, j] = out[j, i] = (pp - pm - mp + mm) / (4.0 * h * h)
    return 0.5 * (out + out.T)


class ValueOnly:
    """A user objective without ``values``: counts its ``value`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def value(self, p):
        self.calls += 1
        return self.inner.value(p)


@pytest.mark.parametrize("manifold,family,objective", CASES)
def test_retract_many_and_values_match_single_path(manifold, family, objective):
    spec = gn.RetractionSpec(family)
    for seed in (1, 2):
        p = _base_point(manifold, seed)
        rows = _tangent_rows(p, seed + 100)
        points = gn.retract_many(spec, p, rows)
        singles = [gn.retract(spec, gn.TangentVector(p, row)) for row in rows]
        assert np.array_equal(points, np.array([q.coords for q in singles]))
        values = objective.values(p, points)
        assert np.array_equal(values, [objective.value(q) for q in singles])


@pytest.mark.parametrize("manifold,family,objective", CASES)
def test_fd_derivatives_match_per_probe_loop(manifold, family, objective):
    spec = gn.RetractionSpec(family)
    p = _base_point(manifold, 7)
    basis = manifold.tangent_basis(p)
    for h in (GRADIENT_STEP_FACTOR, REFINED_GRADIENT_STEP_FACTOR):
        grad = gn.gradient_fd(objective, spec, p, basis=basis, step_factor=h)
        assert np.array_equal(grad.vector.coords, _scalar_gradient(objective, spec, p, basis, h))
    hess = gn.hessian_fd(objective, spec, p, basis=basis)
    assert np.array_equal(hess.matrix, _scalar_hessian(objective, spec, p, basis))


@pytest.mark.parametrize("family", SPHERE_FAMILIES)
def test_value_only_objective_uses_row_fallback(family):
    spec = gn.RetractionSpec(family)
    manifold = gn.Sphere(5)
    inner = gn.seeded_instance(3, "rayleigh", n=5)
    objective = ValueOnly(inner)
    p = _base_point(manifold, 3)
    basis = manifold.tangent_basis(p)
    dim = len(basis)

    grad = gn.gradient_fd(objective, spec, p, basis=basis)
    assert objective.calls == 2 * dim
    assert np.array_equal(grad.vector.coords, gn.gradient_fd(inner, spec, p, basis=basis).vector.coords)

    objective.calls = 0
    hess = gn.hessian_fd(objective, spec, p, basis=basis)
    assert objective.calls == 2 * dim * dim + 1
    assert np.array_equal(hess.matrix, gn.hessian_fd(inner, spec, p, basis=basis).matrix)
    assert np.array_equal(hess.matrix, _scalar_hessian(inner, spec, p, basis))


class NaNAway:
    """Finite at p, NaN at every other point; optionally with ``values``."""

    def __init__(self, p):
        self.p = p

    def value(self, q):
        return 0.0 if np.array_equal(q.coords, self.p.coords) else float("nan")


class NaNAwayBatched(NaNAway):
    def values(self, p, points):
        return np.full(len(points), np.nan)


@pytest.mark.parametrize("cls", [NaNAway, NaNAwayBatched])
def test_non_finite_stencil_value_raises(cls):
    manifold = gn.Sphere(4)
    p = _base_point(manifold, 4)
    objective = cls(p)
    with pytest.raises(gn.EvaluationError):
        gn.gradient_fd(objective, gn.RetractionSpec("exp"), p)
    with pytest.raises(gn.EvaluationError):
        gn.hessian_fd(objective, gn.RetractionSpec("projection"), p)


def test_values_of_wrong_length_is_contract_error():
    class Short(ValueOnly):
        def values(self, p, points):
            return np.zeros(len(points) - 1)

    p = _base_point(gn.Sphere(3), 5)
    with pytest.raises(gn.ContractError):
        gn.gradient_fd(Short(gn.Rayleigh(np.eye(3))), gn.RetractionSpec("exp"), p)


@pytest.mark.parametrize(
    "manifold,family", [(gn.Sphere(6), f) for f in SPHERE_FAMILIES] + [(gn.Rotations3(), f) for f in SO3_FAMILIES]
)
def test_retract_many_rejects_non_tangent_row(manifold, family):
    spec = gn.RetractionSpec(family)
    p = _base_point(manifold, 6)
    rows = _tangent_rows(p, 60, count=4)
    bad = rows.copy()
    bad[2] = bad[2] + 1e-3 * p.coords
    with pytest.raises(gn.ContractError):
        gn.retract_many(spec, p, bad)
    with pytest.raises(gn.ContractError):
        gn.retract_many(spec, p, rows[0])
    with pytest.raises(gn.ConfigurationError):
        gn.retract_many(gn.RetractionSpec("projection" if manifold == gn.Rotations3() else "cayley"), p, rows)


def test_perturbed_inverse_is_closed_form():
    # R_p is injective on the half space a > -1/2 of v = a u + w, which holds
    # up to |v| = 1/2; at v = -u it maps back to p.
    spec = gn.RetractionSpec("perturbed")
    rng = gn.rng_for(8)
    for n in (2, 3, 10):
        manifold = gn.Sphere(n)
        p = gn.random_point(manifold, rng)
        for length in (1e-6, 1e-2, 0.25, 0.45):
            v = gn.random_tangent(p, rng).scaled(length)
            back = gn.inverse_retract(spec, p, gn.retract(spec, v))
            assert np.linalg.norm(back.coords - v.coords) <= 1e-9 * max(1.0, length)


def test_perturbed_inverse_reports_targets_outside_range():
    # q.p > 0 but q.u too negative: a + a^2 + |w|^2 = N q.u has no real root.
    spec = gn.RetractionSpec("perturbed")
    manifold = gn.Sphere(3)
    p = manifold.point([0.0, 0.0, 1.0])
    u = gn.perturbation_direction(p).coords
    q = manifold.point((p.coords - 2.0 * u) / np.sqrt(5.0))
    with pytest.raises(gn.InversionFailureError, match="outside the range"):
        gn.inverse_retract(spec, p, q)
    with pytest.raises(gn.InversionFailureError, match="outside the range"):
        gn.inverse_retract(spec, p, manifold.point([0.0, 1.0, 0.0]))


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 3), (12, 3), (7, 9), (40, 10), (49, 50), (300, 20)])
def test_row_dots_equals_np_dot(rows, cols):
    rng = gn.rng_for(rows * 100 + cols)
    a = rng.standard_normal((rows, cols))
    shared = rng.standard_normal(cols)
    per_row = rng.standard_normal((rows, cols))
    assert np.array_equal(row_dots(a, shared), [np.dot(r, shared) for r in a])
    assert np.array_equal(row_dots(a, per_row), [np.dot(r, s) for r, s in zip(a, per_row)])
    assert np.array_equal(row_dots(a[1:], shared), [np.dot(r, shared) for r in a[1:]])
