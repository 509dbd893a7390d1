import numpy as np
import pytest

import geonewton as gn
from geonewton.manifolds import SO3_GENERATORS


# ---- point and tangent invariants


def test_sphere_point_must_be_unit(sphere3):
    with pytest.raises(gn.ContractError):
        sphere3.point([1.0, 1.0, 0.0])


def test_sphere_tangent_must_be_orthogonal(sphere3):
    p = sphere3.point([1.0, 0.0, 0.0])
    with pytest.raises(gn.ContractError):
        sphere3.tangent(p, [0.1, 1.0, 0.0])


def test_rotation_point_must_be_orthogonal(rotations):
    with pytest.raises(gn.ContractError):
        rotations.point_from_matrix(np.eye(3) * 1.1)


def test_rotation_point_must_have_positive_det(rotations):
    with pytest.raises(gn.ContractError):
        rotations.point_from_matrix(np.diag([1.0, 1.0, -1.0]))


def test_rotation_tangent_must_be_skew(rotations):
    with pytest.raises(gn.ContractError):
        rotations.tangent(rotations.identity(), np.eye(3).reshape(9))


# ---- inner product


def test_inner_orthogonal_vectors(sphere3):
    p = sphere3.point([1, 0, 0])
    u = sphere3.tangent(p, [0, 1, 0])
    v = sphere3.tangent(p, [0, 0, 2])
    assert sphere3.inner(u, v) == 0.0


def test_inner_squared_norm(sphere3):
    p = sphere3.point([1, 0, 0])
    u = sphere3.tangent(p, [0, 3, 0])
    assert sphere3.inner(u, u) == 9.0


def test_inner_trace_metric(rotations):
    eye = rotations.identity()
    u = rotations.tangent(eye, SO3_GENERATORS[2].reshape(9))
    assert rotations.inner(u, u) == pytest.approx(2.0, abs=1e-14)


def test_inner_rejects_mismatched_bases(sphere3):
    u = sphere3.tangent(sphere3.point([1, 0, 0]), [0, 1, 0])
    v = sphere3.tangent(sphere3.point([0, 1, 0]), [1, 0, 0])
    with pytest.raises(gn.ContractError):
        sphere3.inner(u, v)


# ---- projection


def test_project_removes_normal_component(sphere3):
    p = sphere3.point([1, 0, 0])
    out = sphere3.tangent_project(p, [5.0, 1.0, 0.0])
    assert np.allclose(out.coords, [0, 1, 0], atol=1e-14)


def test_project_idempotent_and_self_adjoint(sphere3, rotations):
    rng = gn.rng_for(0)
    for manifold in (sphere3, rotations):
        p = gn.random_point(manifold, rng)
        w1 = rng.standard_normal(manifold.ambient_dim)
        w2 = rng.standard_normal(manifold.ambient_dim)
        pw1 = manifold.tangent_project(p, w1)
        again = manifold.tangent_project(p, pw1.coords)
        assert np.allclose(again.coords, pw1.coords, atol=1e-13)
        pw2 = manifold.tangent_project(p, w2)
        assert np.dot(pw1.coords, w2) == pytest.approx(np.dot(w1, pw2.coords), abs=1e-12)


def test_project_rotation_skew_part(rotations):
    eye = rotations.identity()
    w = np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    out = rotations.tangent_project(eye, w.reshape(9))
    expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(out.matrix, expected, atol=1e-14)
    # removed part is normal to the tangent space
    rest = w.reshape(9) - out.coords
    for vec in rotations.tangent_basis(eye).vectors:
        assert abs(np.dot(rest, vec.coords)) < 1e-13


# ---- exp / log / distance


def test_exp_quarter_circle(sphere3):
    p = sphere3.point([1, 0, 0])
    q = sphere3.exp_map(sphere3.tangent(p, [0, np.pi / 2, 0]))
    assert np.allclose(q.coords, [0, 1, 0], atol=1e-15)


def test_exp_zero_vector_is_identity(sphere3, rotations):
    rng = gn.rng_for(1)
    for manifold in (sphere3, rotations):
        p = gn.random_point(manifold, rng)
        q = manifold.exp_map(manifold.zero_tangent(p))
        assert np.allclose(q.coords, p.coords, atol=1e-15)


def test_exp_rotation_quarter_turn(rotations):
    eye = rotations.identity()
    v = rotations.tangent(eye, (np.pi / 2 * SO3_GENERATORS[2]).reshape(9))
    q = rotations.exp_map(v)
    assert np.allclose(q.matrix, gn.rotation_about_z(np.pi / 2), atol=1e-15)


def test_log_inverts_exp_example(sphere3):
    p = sphere3.point([1, 0, 0])
    v = sphere3.log_map(p, sphere3.point([0, 1, 0]))
    assert np.allclose(v.coords, [0, np.pi / 2, 0], atol=1e-15)


def test_log_same_point_is_zero(sphere3):
    p = sphere3.point([1, 0, 0])
    assert sphere3.log_map(p, p).norm() == 0.0


def test_log_rotation_example(rotations):
    eye = rotations.identity()
    v = rotations.log_map(eye, rotations.point_from_matrix(gn.rotation_about_z(0.3)))
    assert np.allclose(v.matrix, 0.3 * SO3_GENERATORS[2], atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_log_exp_round_trip(sphere3, rotations, seed):
    rng = gn.rng_for(seed)
    for manifold in (sphere3, rotations):
        p = gn.random_point(manifold, rng)
        v = gn.random_tangent(p, rng).scaled(rng.uniform(0.01, 2.0))
        back = manifold.log_map(p, manifold.exp_map(v))
        assert np.linalg.norm(back.coords - v.coords) <= 1e-9 * max(1.0, v.norm())
        assert back.norm() == pytest.approx(
            manifold.geodesic_distance(p, manifold.exp_map(v)), abs=1e-12
        )


def test_log_cut_locus(sphere3, rotations):
    p = sphere3.point([1, 0, 0])
    with pytest.raises(gn.CutLocusError):
        sphere3.log_map(p, sphere3.point([-1, 0, 0]))
    eye = rotations.identity()
    half_turn = rotations.point_from_matrix(gn.rotation_about_z(np.pi))
    with pytest.raises(gn.CutLocusError):
        rotations.log_map(eye, half_turn)


def test_distance_examples(sphere3, rotations):
    assert sphere3.geodesic_distance(
        sphere3.point([1, 0, 0]), sphere3.point([0, 1, 0])
    ) == pytest.approx(np.pi / 2, abs=1e-15)
    eye = rotations.identity()
    quarter = rotations.point_from_matrix(gn.rotation_about_z(np.pi / 2))
    assert rotations.geodesic_distance(eye, quarter) == pytest.approx(
        np.pi / np.sqrt(2.0), abs=1e-12
    )


def test_distance_symmetry_and_identity(sphere3, rotations):
    rng = gn.rng_for(2)
    for manifold in (sphere3, rotations):
        for _ in range(20):
            p = gn.random_point(manifold, rng)
            q = gn.random_point(manifold, rng)
            assert abs(
                manifold.geodesic_distance(p, q) - manifold.geodesic_distance(q, p)
            ) <= 1e-12
            assert manifold.geodesic_distance(p, p) <= 1e-12


def test_distance_accurate_at_tiny_separation(sphere3):
    # the arccos form loses everything below sqrt(eps); the implementation must not
    p = sphere3.point([1, 0, 0])
    v = sphere3.tangent(p, [0, 1e-9, 0])
    q = sphere3.exp_map(v)
    assert sphere3.geodesic_distance(p, q) == pytest.approx(1e-9, rel=1e-6)


# ---- tangent bases


def test_basis_at_first_axis(sphere3):
    basis = sphere3.tangent_basis(sphere3.point([1, 0, 0]))
    assert np.allclose(basis.vectors[0].coords, [0, 1, 0], atol=1e-15)
    assert np.allclose(basis.vectors[1].coords, [0, 0, 1], atol=1e-15)


def test_basis_gram_identity(sphere3, rotations):
    rng = gn.rng_for(3)
    for manifold in (sphere3, gn.Sphere(5), rotations):
        p = gn.random_point(manifold, rng)
        basis = manifold.tangent_basis(p)
        assert len(basis) == manifold.intrinsic_dim
        assert np.allclose(basis.gram(), np.eye(len(basis)), atol=1e-10)


def test_basis_rotation_generators(rotations):
    basis = rotations.tangent_basis(rotations.identity())
    for vec, gen in zip(basis.vectors, SO3_GENERATORS):
        assert np.allclose(vec.matrix, gen / np.sqrt(2.0), atol=1e-15)


def test_basis_deterministic(sphere3):
    p = gn.random_point(sphere3, gn.rng_for(4))
    b1 = sphere3.tangent_basis(p)
    b2 = sphere3.tangent_basis(p)
    for u, v in zip(b1.vectors, b2.vectors):
        assert np.array_equal(u.coords, v.coords)


def test_basis_coordinates_round_trip(sphere3):
    p = gn.random_point(sphere3, gn.rng_for(5))
    basis = sphere3.tangent_basis(p)
    v = gn.random_tangent(p, gn.rng_for(6), unit=False)
    coeffs = basis.coordinates(v)
    back = basis.from_coordinates(coeffs)
    assert np.allclose(back.coords, v.coords, atol=1e-13)


# ---- the cached frame


def _gram_schmidt_reference(p):
    """Candidate-by-candidate modified Gram-Schmidt over the standard basis,
    skipping the candidate aligned with p: the frame ``p.frame`` must equal."""
    x = p.coords
    n = len(x)

    def sweep(vec):
        vec = vec - np.dot(x, vec) * x
        for b in vectors:
            vec = vec - np.dot(b, vec) * b
        return vec

    vectors = []
    for i in range(n):
        cand = np.zeros(n)
        cand[i] = 1.0
        cand = sweep(cand)
        norm = np.linalg.norm(cand)
        if norm < 1e-8:
            continue
        cand = sweep(cand / norm)
        vectors.append(cand / np.linalg.norm(cand))
        if len(vectors) == n - 1:
            break
    return np.array(vectors)


def _frame_points(n):
    manifold = gn.Sphere(n)
    rng = gn.rng_for(900 + n)
    points = [gn.random_point(manifold, rng) for _ in range(10)]
    for k in range(n):
        for sign in (1.0, -1.0):
            e = np.zeros(n)
            e[k] = sign
            points.append(manifold.point(e))
    for _ in range(5):
        x = np.zeros(n)
        x[0] = 1.0
        x = x + 1e-9 * rng.standard_normal(n)
        points.append(manifold.point(x / np.linalg.norm(x)))
    return points


@pytest.mark.parametrize("n", [2, 3, 10, 20, 50])
def test_sphere_frame_equals_reference_gram_schmidt(n):
    for p in _frame_points(n):
        assert np.array_equal(p.frame, _gram_schmidt_reference(p))
        basis = p.manifold.tangent_basis(p)
        assert np.array_equal(basis.frame, p.frame)
        assert np.array_equal(gn.perturbation_direction(p).coords, basis.vectors[0].coords)


def test_rotation_frame_rows_are_scaled_generators(rotations):
    p = gn.random_point(rotations, gn.rng_for(11))
    expected = [(p.matrix @ gen).reshape(9) / np.sqrt(2.0) for gen in SO3_GENERATORS]
    assert np.array_equal(p.frame, np.array(expected))


def test_frame_is_read_only_and_built_once(sphere3, rotations):
    for manifold in (sphere3, gn.Sphere(10), rotations):
        p = gn.random_point(manifold, gn.rng_for(12))
        frame = p.frame
        assert p.frame is frame
        assert not frame.flags.writeable
        with pytest.raises(ValueError):
            frame[0, 0] = 1.0
        basis = manifold.tangent_basis(p)
        assert not basis.frame.flags.writeable
        assert basis.vectors is basis.vectors


def test_basis_rejects_non_orthonormal_or_non_tangent(sphere3):
    p = sphere3.point([0.0, 0.0, 1.0])
    with pytest.raises(gn.ContractError, match="orthonormal"):
        gn.TangentBasis(p, np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]) / [[1.0], [np.sqrt(2.0)]])
    with pytest.raises(gn.ContractError, match="orthonormal"):
        gn.TangentBasis(p, (sphere3.tangent(p, [2.0, 0.0, 0.0]),))
    with pytest.raises(gn.ContractError, match="tangent"):
        gn.TangentBasis(p, np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]]))
    with pytest.raises(gn.ContractError):
        gn.TangentBasis(p, np.eye(2))
    other = sphere3.point([1.0, 0.0, 0.0])
    with pytest.raises(gn.ContractError, match="tangent"):
        gn.TangentBasis(p, (sphere3.tangent(other, [0.0, 0.0, 1.0]),))


@pytest.mark.parametrize("n", [3, 10, 50])
def test_basis_coordinates_equal_vector_loops(n):
    manifold = gn.Sphere(n)
    rng = gn.rng_for(13 + n)
    p = gn.random_point(manifold, rng)
    basis = manifold.tangent_basis(p)
    for _ in range(5):
        v = gn.random_tangent(p, rng, unit=False)
        loop = np.array([float(np.dot(b.coords, v.coords)) for b in basis.vectors])
        assert np.array_equal(basis.coordinates(v), loop)
        coeffs = rng.standard_normal(len(basis))
        ambient = np.zeros(n)
        for c, b in zip(coeffs, basis.vectors):
            ambient += c * b.coords
        assert np.array_equal(basis.from_coordinates(coeffs).coords, ambient)
