import math

import numpy as np
import pytest

import geonewton as gn
from geonewton.manifolds import SO3_GENERATORS, rotation_angles


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
    v = gn.TangentVector(p, [0, 0.1, 0])
    with pytest.raises(gn.ConfigurationError):
        gn.retract(gn.RetractionSpec("cayley"), v)
    eye = rotations.identity()
    w = gn.TangentVector(eye, (0.1 * SO3_GENERATORS[0]).reshape(9))
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
    out = gn.retract(gn.RetractionSpec("projection"), gn.TangentVector(p, [0, 1, 0]))
    assert np.allclose(out.coords, np.array([1, 1, 0]) / np.sqrt(2), atol=1e-15)


def test_zero_vector_fixed_point(sphere3, rotations):
    rng = gn.rng_for(10)
    for manifold in (sphere3, rotations):
        p = gn.random_point(manifold, rng)
        for family in families_for(manifold):
            out = gn.retract(gn.RetractionSpec(family), gn.TangentVector(p, np.zeros(manifold.ambient_dim)))
            assert np.allclose(out.coords, p.coords, atol=1e-14)



@pytest.mark.filterwarnings("error")
def test_long_cayley_tangent_raises(rotations):
    # The Cayley image drifts off SO(3) by about eps |v|: at |v| = 1e6 it is
    # past POINT_TOL, so the kernel's point check must reject it.
    spec = gn.RetractionSpec("cayley")
    p = rotations.identity()
    v = gn.TangentVector(p, (1e6 * (SO3_GENERATORS[0] + 2.0 * SO3_GENERATORS[1] + 3.0 * SO3_GENERATORS[2])).reshape(9))
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
        gn.retract(spec, gn.TangentVector(p, [0.0, 0.6 * length, 0.8 * length]))
    with pytest.raises(gn.ContractError):
        gn.retract_many(spec, p, np.array([[0.0, 0.1, 0.0], [0.0, length, 0.0]]))
    if family == "exp":
        with pytest.raises(gn.ContractError):
            rotations.exp_map(gn.TangentVector(rotations.identity(), (length * SO3_GENERATORS[0]).reshape(9)))


def test_cayley_closed_form_angle(rotations):
    eye = rotations.identity()
    theta = 0.2
    v = gn.TangentVector(eye, (theta * SO3_GENERATORS[2]).reshape(9))
    out = gn.retract(gn.RetractionSpec("cayley"), v)
    assert rotation_angles(out.matrix[None])[0] == pytest.approx(2.0 * np.arctan(theta / 2.0), abs=1e-14)
    assert np.allclose(out.matrix, gn.rotation_exp(gn.hat([0.0, 0.0, 2.0 * np.arctan(theta / 2.0)])), atol=1e-14)


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
    est = gn.fit_rows(gn.retraction_order_rows(spec, sweep))
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
    assert np.allclose(v.coords, sphere3.log_many(p, q.coords[None])[0], atol=1e-15)


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


def test_perturbed_defect_is_along_first_basis_vector(sphere3):
    # R_p(t w) of the order-1 family leaves the projection's by t^2 u + O(t^4)
    # for a unit w orthogonal to u, and u is the first tangent-basis vector
    p = gn.random_point(sphere3, gn.rng_for(15))
    u, w = p.frame
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    t = 1e-3
    v = gn.TangentVector(p, t * w)
    defect = gn.retract(gn.RetractionSpec("perturbed"), v).coords - gn.retract(gn.RetractionSpec("projection"), v).coords
    assert np.allclose(defect / t**2, u, atol=1e-5)


# Value entry points given a point of another manifold, a vector of the wrong
# length, or rows that are not a real rectangular array: numpy raised
# ValueError at each, warned ComplexWarning, or (for a Sphere(9) point at the
# SO(3) identity, whose coordinates have the right length) returned a value.
_S3, _SO3 = gn.Sphere(3), gn.Rotations3()
_E0, _I = _S3.point([1.0, 0.0, 0.0]), _SO3.identity()
_S9_POINT = gn.Sphere(9).point(np.eye(9)[0])
BAD_VALUES = {
    "inverse_retract_other_sphere": lambda: gn.inverse_retract(
        gn.RetractionSpec("exp"), _E0, gn.Sphere(4).point([1.0, 0.0, 0.0, 0.0])),
    "inverse_retract_sphere_point_at_rotation": lambda: gn.inverse_retract(gn.RetractionSpec("exp"), _I, _S9_POINT),
    "distance_sphere_point_at_rotation": lambda: _SO3.geodesic_distance(_I, _S9_POINT),
    "sphere_project_short": lambda: _S3.tangent_project(_E0, [0.0, 1.0]),
    "rotation_project_short": lambda: _SO3.tangent_project(_I, [1.0, 2.0, 3.0]),
    "retract_many_ragged": lambda: gn.retract_many(gn.RetractionSpec("exp"), _E0, [[0.0, 1.0, 0.0], [0.0, 1.0]]),
    "retract_many_complex": lambda: gn.retract_many(gn.RetractionSpec("exp"), _E0, np.array([[0.0, 1j, 0.0]])),
    "inverse_retract_many_ragged": lambda: gn.inverse_retract_many(
        gn.RetractionSpec("projection"), _E0, [[1.0, 0.0, 0.0], [1.0, 0.0]]),
    "inverse_retract_many_complex": lambda: gn.inverse_retract_many(
        gn.RetractionSpec("projection"), _E0, np.array([[1.0 + 0j, 0.0, 0.0]])),
}


@pytest.mark.filterwarnings("error")  # no ComplexWarning either
@pytest.mark.parametrize("case", BAD_VALUES)
def test_value_entry_points_raise_contract_error(case):
    with pytest.raises(gn.ContractError):
        BAD_VALUES[case]()


@pytest.mark.filterwarnings("error")
def test_inverse_retract_many_checks_its_rows():
    spec = gn.RetractionSpec("projection")
    with pytest.raises(gn.ContractError, match="array of points"):
        gn.inverse_retract_many(spec, _E0, [1.0, 0.0, 0.0])  # one row, not a (k, 3) array
    with pytest.raises(gn.ContractError, match="unit length"):
        gn.inverse_retract_many(spec, _E0, [[1.0, 1.0, 0.0]])
    with pytest.raises(gn.ConfigurationError):
        gn.inverse_retract_many(gn.RetractionSpec("cayley"), _E0, [[1.0, 0.0, 0.0]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("base,family", [pytest.param(base, family, id=f"{name}-{family}")
                                         for name, base in (("sphere3", _E0), ("so3", _I))
                                         for family in families_for(base.manifold)])
def test_empty_batches_map_to_empty_arrays(base, family):
    # as retract_many does for every family, an empty batch of targets inverts to (0, ambient)
    spec = gn.RetractionSpec(family)
    empty = np.zeros((0, base.manifold.ambient_dim))
    assert gn.retract_many(spec, base, empty).shape == empty.shape
    assert gn.inverse_retract_many(spec, base, empty).shape == empty.shape


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["exp", "projection", "perturbed"])
def test_complex_probe_rows_are_mapped_holomorphically(family):
    # The complex-step path behind gradient_cs: rows i h v with v tangent map to
    # R_p(0) + i h v to far below rounding (DR_p(0) = id).  The rows are built
    # from p.frame and not checked again; only the family is, as retract_many checks it.
    from geonewton.retractions import _retract_rows

    spec, h = gn.RetractionSpec(family), 1e-30
    p = gn.random_point(_S3, gn.rng_for(70))
    rows = 1j * h * p.frame
    out = _retract_rows(spec, p, rows)
    assert np.abs(out.real - p.coords).max() <= 1e-15
    assert np.allclose(out.imag / h, p.frame, rtol=0.0, atol=1e-15)
    with pytest.raises(gn.ConfigurationError):
        _retract_rows(gn.RetractionSpec("cayley"), p, rows)
