import math

import numpy as np
import pytest

import geonewton as gn
from geonewton.manifolds import SO3_GENERATORS, rotation_angle


def families_for(manifold):
    if isinstance(manifold, gn.Sphere):
        return ["exp", "projection", "perturbed"]
    return ["exp", "cayley"]


def test_declared_orders():
    assert gn.RetractionSpec("exp").declared_order == math.inf
    assert gn.RetractionSpec("projection").declared_order == 2
    assert gn.RetractionSpec("cayley").declared_order == 2
    assert gn.RetractionSpec("perturbed").declared_order == 1


def test_unknown_family_rejected():
    with pytest.raises(gn.ConfigurationError):
        gn.RetractionSpec("polar")


def test_family_manifold_pairing(sphere3, rotations):
    p = sphere3.point([1, 0, 0])
    v = sphere3.tangent(p, [0, 0.1, 0])
    with pytest.raises(gn.ConfigurationError):
        gn.retract(gn.RetractionSpec("cayley"), v)
    eye = rotations.identity()
    w = rotations.tangent(eye, (0.1 * SO3_GENERATORS[0]).reshape(9))
    for bad in ("projection", "perturbed"):
        with pytest.raises(gn.ConfigurationError):
            gn.retract(gn.RetractionSpec(bad), w)
    # so do the derivative reads and the Newton driver, through retract_many
    calls = (
        gn.gradient_fd,
        gn.hessian_fd,
        lambda objective, spec, x: gn.newton_run(objective, gn.NewtonConfig(retraction=spec), x),
    )
    cases = (
        (gn.Rayleigh(np.diag([3.0, 2.0, 1.0])), "cayley", p),
        (gn.ProcrustesTrace(np.eye(3)), "projection", eye),
        (gn.ProcrustesTrace(np.eye(3)), "perturbed", eye),
    )
    for call in calls:
        for objective, bad, x in cases:
            with pytest.raises(gn.ConfigurationError):
                call(objective, gn.RetractionSpec(bad), x)


def test_projection_normalizes(sphere3):
    p = sphere3.point([1, 0, 0])
    out = gn.retract(gn.RetractionSpec("projection"), sphere3.tangent(p, [0, 1, 0]))
    assert np.allclose(out.coords, np.array([1, 1, 0]) / np.sqrt(2), atol=1e-15)


def test_zero_vector_fixed_point(sphere3, rotations):
    rng = gn.rng_for(10)
    for manifold in (sphere3, rotations):
        p = gn.random_point(manifold, rng)
        for family in families_for(manifold):
            out = gn.retract(gn.RetractionSpec(family), manifold.zero_tangent(p))
            assert np.allclose(out.coords, p.coords, atol=1e-14)



@pytest.mark.filterwarnings("error")
def test_long_cayley_tangent_raises(rotations):
    # The Cayley image drifts off SO(3) by about eps |v|: at |v| = 1e6 it is
    # past POINT_TOL, so the kernel's point check must reject it.
    spec = gn.RetractionSpec("cayley")
    p = rotations.identity()
    v = rotations.tangent(p, (1e6 * (SO3_GENERATORS[0] + 2.0 * SO3_GENERATORS[1] + 3.0 * SO3_GENERATORS[2])).reshape(9))
    with pytest.raises(gn.ContractError):
        gn.retract(spec, v)
    with pytest.raises(gn.ContractError):
        gn.retract_many(spec, p, np.stack([0.5 * v.coords, v.coords]))
    # At |v| = 1e80 I - W/2 is singular to working precision for this seeded
    # tangent; the solve's LinAlgError must surface as ContractError.
    rng = gn.rng_for(2)
    p = gn.random_point(rotations, rng)
    w = gn.random_tangent(p, rng)
    with pytest.raises(gn.ContractError):
        gn.retract(spec, w.scaled(1e80))
    with pytest.raises(gn.ContractError):
        gn.retract_many(spec, p, np.stack([w.coords, 1e80 * w.coords]))


@pytest.mark.parametrize(
    "family,length", [("exp", 1e160), ("projection", 1e160), ("perturbed", 1e80), ("perturbed", 1e160)]
)
@pytest.mark.filterwarnings("error")
def test_overflowing_sphere_tangent_raises(sphere3, rotations, family, length):
    # the kernel's row norm overflows; the image would be a zero or NaN row.
    # The rejection prints no numpy warning.
    p = sphere3.point([1.0, 0.0, 0.0])
    spec = gn.RetractionSpec(family)
    with pytest.raises(gn.ContractError):
        gn.retract(spec, sphere3.tangent(p, [0.0, 0.6 * length, 0.8 * length]))
    with pytest.raises(gn.ContractError):
        gn.retract_many(spec, p, np.array([[0.0, 0.1, 0.0], [0.0, length, 0.0]]))
    if family == "exp":
        with pytest.raises(gn.ContractError):
            rotations.exp_map(rotations.tangent(rotations.identity(), (length * SO3_GENERATORS[0]).reshape(9)))


def test_cayley_closed_form_angle(rotations):
    eye = rotations.identity()
    theta = 0.2
    v = rotations.tangent(eye, (theta * SO3_GENERATORS[2]).reshape(9))
    out = gn.retract(gn.RetractionSpec("cayley"), v)
    assert rotation_angle(out.matrix) == pytest.approx(2.0 * np.arctan(theta / 2.0), abs=1e-14)
    assert np.allclose(out.matrix, gn.rotation_about_z(2.0 * np.arctan(theta / 2.0)), atol=1e-14)


def test_first_order_agreement_all_families(sphere3, rotations):
    # shrinking the vector by 4 must shrink the gap to the exponential by >= 8
    rng = gn.rng_for(11)
    for manifold in (sphere3, rotations):
        for family in families_for(manifold):
            spec = gn.RetractionSpec(family)
            for _ in range(100):
                p = gn.random_point(manifold, rng)
                v = gn.random_tangent(p, rng).scaled(rng.uniform(0.05, 0.5))
                gaps = []
                for t in (2.0**-4, 2.0**-6):
                    vt = v.scaled(t)
                    gaps.append(
                        manifold.geodesic_distance(gn.retract(spec, vt), manifold.exp_map(vt))
                    )
                assert gaps[1] <= gaps[0] / 8.0 + 1e-12


@pytest.mark.parametrize(
    "family,manifold_name,min_slope",
    [
        ("projection", "sphere", 2.8),
        ("perturbed", "sphere", 1.8),
        ("cayley", "so3", 2.8),
    ],
)
def test_order_at_least_declared(family, manifold_name, min_slope):
    manifold = gn.Sphere(3) if manifold_name == "sphere" else gn.Rotations3()
    spec = gn.RetractionSpec(family)
    p = gn.random_point(manifold, gn.rng_for(12))
    sweep = gn.make_sweep(p, 3, seed=13, scales=tuple(2.0 ** (-k) for k in range(3, 11)))
    est = gn.estimate_retraction_order(spec, sweep)
    assert not est.saturated
    assert est.slope >= spec.declared_order + 1 - 0.2
    assert est.slope >= min_slope


def test_inverse_projection_closed_form(sphere3):
    p = sphere3.point([1, 0, 0])
    q = sphere3.point(np.array([1, 1, 0]) / np.sqrt(2))
    v = gn.inverse_retract(gn.RetractionSpec("projection"), p, q)
    assert np.allclose(v.coords, [0, 1, 0], atol=1e-14)


def test_inverse_exp_equals_log(sphere3):
    p = sphere3.point([1, 0, 0])
    q = sphere3.point([0, 1, 0])
    v = gn.inverse_retract(gn.RetractionSpec("exp"), p, q)
    assert np.allclose(v.coords, sphere3.log_map(p, q).coords, atol=1e-15)


def test_inverse_at_same_point_is_zero(sphere3, rotations):
    rng = gn.rng_for(14)
    for manifold in (sphere3, rotations):
        p = gn.random_point(manifold, rng)
        for family in families_for(manifold):
            v = gn.inverse_retract(gn.RetractionSpec(family), p, p)
            assert v.norm() <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_inverse_round_trips(sphere3, rotations, seed):
    rng = gn.rng_for(100 + seed)
    for manifold in (sphere3, rotations):
        p = gn.random_point(manifold, rng)
        for family in families_for(manifold):
            spec = gn.RetractionSpec(family)
            v = gn.random_tangent(p, rng).scaled(rng.uniform(0.05, 0.4))
            q = gn.retract(spec, v)
            back = gn.inverse_retract(spec, p, q)
            assert np.linalg.norm(gn.retract(spec, back).coords - q.coords) <= 1e-10


def test_inverse_projection_outside_hemisphere(sphere3):
    p = sphere3.point([1, 0, 0])
    q = sphere3.point([-1, 0, 0])
    with pytest.raises(gn.InversionFailureError):
        gn.inverse_retract(gn.RetractionSpec("projection"), p, q)


def test_perturbation_direction_is_first_basis_vector(sphere3):
    p = gn.random_point(sphere3, gn.rng_for(15))
    u = gn.perturbation_direction(p)
    assert np.array_equal(u.coords, sphere3.tangent_basis(p).vectors[0].coords)
    assert u.norm() == pytest.approx(1.0, abs=1e-12)
