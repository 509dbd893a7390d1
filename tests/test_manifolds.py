import numpy as np
import pytest

import geonewton as gn
from geonewton.manifolds import SO3_GENERATORS, frame_sums, row_dots

EXP = gn.RetractionSpec("exp")


# ---- point and tangent invariants


NAN, INF = float("nan"), float("inf")


@pytest.mark.filterwarnings("error")  # a rejected NaN or inf raises without a warning
def test_sphere_point_must_be_unit(sphere3):
    for coords in ([1.0, 1.0, 0.0], [NAN] * 3, [NAN, 0.0, 0.0], [INF, 0.0, 0.0]):
        with pytest.raises(gn.ContractError):
            sphere3.point(coords)


@pytest.mark.filterwarnings("error")  # a rejected NaN or inf raises without a warning
def test_sphere_tangent_must_be_orthogonal(sphere3):
    p = sphere3.point([1.0, 0.0, 0.0])
    for coords in ([0.1, 1.0, 0.0], [NAN, 0.0, 0.0], [0.0, NAN, 0.0], [INF, 0.0, 0.0], [0.0, INF, 0.0]):
        with pytest.raises(gn.ContractError):
            gn.TangentVector(p, coords)


@pytest.mark.filterwarnings("error")  # a rejected NaN or inf raises without a warning
def test_rotation_point_must_be_orthogonal(rotations):
    for matrix in (np.eye(3) * 1.1, np.full((3, 3), NAN), np.diag([1.0, 1.0, NAN]), np.diag([INF, 1.0, 1.0])):
        with pytest.raises(gn.ContractError):
            rotations.point_from_matrix(matrix)


def test_rotation_point_must_have_positive_det(rotations):
    with pytest.raises(gn.ContractError):
        rotations.point_from_matrix(np.diag([1.0, 1.0, -1.0]))


@pytest.mark.filterwarnings("error")  # a rejected NaN or inf raises without a warning
def test_rotation_tangent_must_be_skew(rotations):
    for matrix in (np.eye(3), gn.hat([NAN, 0.0, 0.0]), gn.hat([INF, 0.0, 0.0]), gn.hat([1.0, 0.0, INF])):
        with pytest.raises(gn.ContractError):
            gn.TangentVector(rotations.identity(), matrix.reshape(9))


@pytest.mark.filterwarnings("error")  # rejected before a square can overflow
def test_overflowing_entries_raise_without_a_warning(sphere3, rotations):
    with pytest.raises(gn.ContractError):
        sphere3.point([1e200, 0.0, 0.0])
    with pytest.raises(gn.ContractError):
        rotations.point_from_matrix(1e200 * np.eye(3))
    with pytest.raises(gn.ContractError):
        gn.rotation_exp(gn.hat([1e160, 0.0, 0.0]))


_S3, _SO3 = gn.Sphere(3), gn.Rotations3()
_E0 = _S3.point([1.0, 0.0, 0.0])
# Coordinates that are not real numbers in a rectangular array, one per
# constructor and kind: numpy raised ValueError or TypeError on each, or
# dropped the imaginary part of a complex array.
NOT_REAL = {
    "point_text": lambda: _S3.point("abc"),
    "point_ragged": lambda: _S3.point([[1, 0], [0]]),
    "point_complex": lambda: _S3.point([1 + 0j, 0, 0]),
    "point_complex_array": lambda: _S3.point(np.array([1 + 0j, 0, 0])),
    "tangent_text": lambda: gn.TangentVector(_E0, ["a", "b", "c"]),
    "tangent_ragged": lambda: gn.TangentVector(_E0, [[0, 1], [0]]),
    "tangent_complex": lambda: gn.TangentVector(_E0, [0, 1j, 0]),
    "operator_text": lambda: gn.SymmetricOperator(_E0, "abc"),
    "operator_ragged": lambda: gn.SymmetricOperator(_E0, [[1, 0], [0]]),
    "rotation_text": lambda: _SO3.point_from_matrix("abc"),
    "rotation_ragged": lambda: _SO3.point_from_matrix([[1, 0, 0], [0, 1], [0, 0, 1]]),
    "rotation_complex": lambda: _SO3.point_from_matrix(np.eye(3) + 0j),
    "sphere_project_text": lambda: _S3.tangent_project(_E0, "abc"),
    "sphere_project_ragged": lambda: _S3.tangent_project(_E0, [[0, 1], [0]]),
    "sphere_project_complex": lambda: _S3.tangent_project(_E0, [0, 1 + 0j, 0]),
    "rotation_project_text": lambda: _SO3.tangent_project(_SO3.identity(), "abc"),
    "rotation_project_ragged": lambda: _SO3.tangent_project(_SO3.identity(), [[1, 0, 0], [0, 1], [0, 0, 1]]),
    "rotation_project_complex": lambda: _SO3.tangent_project(_SO3.identity(), 1j * np.eye(3)),
}


@pytest.mark.filterwarnings("error")  # no ComplexWarning either
@pytest.mark.parametrize("case", NOT_REAL)
def test_coordinates_that_are_not_real_raise_contract_error(case):
    with pytest.raises(gn.ContractError, match="real numbers"):
        NOT_REAL[case]()


def test_rotation_matrix_of_the_wrong_size_raises_contract_error(rotations):
    with pytest.raises(gn.ContractError, match="length 9"):
        rotations.point_from_matrix(np.eye(2))


_E0_UNIT = gn.TangentVector(_E0, [0.0, 1.0, 0.0])
# Caller values that the library turns into a vector, a matrix or an
# operator: numpy raised TypeError, ValueError or IndexError on each, warned
# RuntimeWarning or ComplexWarning, or returned a NaN vector or (for
# rotation_exp of a matrix that is not skew) a matrix that is no rotation;
# an operator matrix with an inf entry was accepted.
MALFORMED = {
    "scaled_nan": lambda: _E0_UNIT.scaled(np.nan),
    "scaled_inf": lambda: _E0_UNIT.scaled(np.inf),
    "hat_short": lambda: gn.hat([1.0, 2.0]),
    "hat_complex": lambda: gn.hat([1j, 0.0, 0.0]),
    "rotation_exp_2x2": lambda: gn.rotation_exp(np.zeros((2, 2))),
    "rotation_exp_not_skew": lambda: gn.rotation_exp(np.ones((3, 3))),
    "operator_complex": lambda: gn.SymmetricOperator(_E0, np.eye(2) + 1j * np.eye(2)),
    "operator_nan": lambda: gn.SymmetricOperator(_E0, np.full((2, 2), np.nan)),
    "operator_inf": lambda: gn.SymmetricOperator(_E0, np.diag([np.inf, 1.0])),
}


@pytest.mark.filterwarnings("error")  # no RuntimeWarning or ComplexWarning either
@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_caller_values_raise_contract_error(case):
    with pytest.raises(gn.ContractError):
        MALFORMED[case]()


def test_rotation_exp_takes_hat_output_at_every_scale():
    # the skewness tolerance is relative, as the tangent check's: hat's exact
    # skew output passes at any finite size, and the matrix is one row of
    # the stacked kernel bit for bit
    for scale in (0.0, 1e-300, 1.0, 1e6, 1e150):
        omega_hat = gn.hat(scale * np.array([0.3, -0.4, 1.2]))
        out = gn.rotation_exp(omega_hat)
        assert out.tobytes() == gn.manifolds.rotation_exp_many(omega_hat[None])[0].tobytes()
    nearly = gn.hat([0.3, -0.4, 1.2]) + 1e-13 * np.eye(3)
    assert np.allclose(gn.rotation_exp(nearly).T @ gn.rotation_exp(nearly), np.eye(3), atol=1e-12)


# ---- inner product


def _norm_cases():
    """Tangent vectors of every scale: zero, subnormal, unit and near overflow."""
    rng = gn.rng_for(70)
    for manifold in (gn.Sphere(3), gn.Sphere(10), gn.Sphere(50), gn.Rotations3()):
        p = gn.random_point(manifold, rng)
        yield gn.TangentVector(p, np.zeros(manifold.ambient_dim))
        direction = gn.random_tangent(p, rng).coords
        for scale in (5e-324, 1e-310, 1e-160, 1e-3, 1.0, 1e3, 1e150, 1e154, 1e160):
            yield gn.TangentVector(p, scale * direction)


def _same_norm(v):
    # numpy's norm, or where its squared norm passes 1.8e308 and it reads inf
    # (with a warning, which v.norm() must not give) 2^600 |2^-600 v|
    with np.errstate(over="ignore"):
        expected = np.linalg.norm(v.coords)
        if expected == np.inf:
            expected = 2.0 ** 600 * np.linalg.norm(2.0 ** -600 * v.coords)
    return np.float64(v.norm()).tobytes() == np.float64(expected).tobytes()


def test_tangent_norm_equals_numpy_norm_bit_for_bit():
    for v in _norm_cases():
        assert _same_norm(v)


@pytest.mark.filterwarnings("error")
def test_tangent_norm_past_the_float_range_is_finite():
    # the squares of a vector past about 1.34e154 overflow; its norm is taken
    # at scale 2^-600 and scaled back, exactly, as a power of two scales
    p = gn.Sphere(3).point([1.0, 0.0, 0.0])
    for coords in ([0.0, 1e155, 0.0], [0.0, 3e200, -4e200], [0.0, 1e307, 1e307]):
        v = gn.TangentVector(p, coords)
        assert np.isfinite(v.norm()) and v.norm() > 1.34e154
        assert v.norm() == 2.0 ** 600 * np.linalg.norm(2.0 ** -600 * np.array(coords))
    assert gn.TangentVector(p, [0.0, 3e200, -4e200]).norm() == pytest.approx(5e200, rel=1e-15)


def test_tangent_norm_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.floats(allow_nan=False, allow_infinity=False)
    vectors = st.integers(2, 20).flatmap(lambda n: st.lists(entries, min_size=n, max_size=n))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(vectors)
    def check(entries):
        # the north pole's tangent space is every vector with a zero first entry
        coords = np.array([0.0, *entries])
        p = gn.Sphere(len(coords)).point(np.eye(len(coords))[0])
        assert _same_norm(gn.TangentVector(p, coords))

    check()


def test_inner_orthogonal_vectors(sphere3):
    p = sphere3.point([1, 0, 0])
    u = gn.TangentVector(p, [0, 1, 0])
    v = gn.TangentVector(p, [0, 0, 2])
    assert np.dot(u.coords, v.coords) == 0.0


def test_inner_squared_norm(sphere3):
    p = sphere3.point([1, 0, 0])
    u = gn.TangentVector(p, [0, 3, 0])
    assert np.dot(u.coords, u.coords) == 9.0


def test_inner_trace_metric(rotations):
    eye = rotations.identity()
    u = gn.TangentVector(eye, SO3_GENERATORS[2].reshape(9))
    assert np.dot(u.coords, u.coords) == pytest.approx(2.0, abs=1e-14)
    assert np.trace(u.matrix.T @ u.matrix) == np.dot(u.coords, u.coords)


def test_inner_rejects_mismatched_bases(sphere3):
    # a solve takes the gradient's inner products with the rows of the
    # operator base's frame: a gradient at another point is refused, one at
    # an equal point built separately is not
    op = gn.SymmetricOperator(sphere3.point([1, 0, 0]), np.eye(2))
    v = gn.TangentVector(sphere3.point([0, 1, 0]), [1, 0, 0])
    with pytest.raises(gn.ContractError, match="different point"):
        gn.solve_tangent_system(op, v)
    same = gn.TangentVector(sphere3.point([1, 0, 0]), [0, 1, 0])
    assert np.array_equal(gn.solve_tangent_system(op, same).coords, -same.coords)


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
    assert (np.abs(row_dots(rotations.tangent_basis(eye), rest)) < 1e-13).all()


# ---- exp / log / distance


def test_exp_quarter_circle(sphere3):
    p = sphere3.point([1, 0, 0])
    q = sphere3.exp_map(gn.TangentVector(p, [0, np.pi / 2, 0]))
    assert np.allclose(q.coords, [0, 1, 0], atol=1e-15)


def test_exp_zero_vector_is_identity(sphere3, rotations):
    rng = gn.rng_for(1)
    for manifold in (sphere3, rotations):
        p = gn.random_point(manifold, rng)
        q = manifold.exp_map(gn.TangentVector(p, np.zeros(manifold.ambient_dim)))
        assert np.allclose(q.coords, p.coords, atol=1e-15)


def test_exp_rotation_quarter_turn(rotations):
    eye = rotations.identity()
    v = gn.TangentVector(eye, (np.pi / 2 * SO3_GENERATORS[2]).reshape(9))
    q = rotations.exp_map(v)
    assert np.allclose(q.matrix, [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], atol=1e-15)


@pytest.mark.filterwarnings("error")  # no ComplexWarning: vee keeps the stack's dtype
def test_complex_rotation_exp_stack_runs_clean():
    # The complex-step probes of SO(3) go through this kernel: exp(i h W) is
    # I + i h W to far below rounding, so its imaginary part over h reads W.
    h = 1e-30
    omegas = gn.rng_for(60).standard_normal((4, 3))
    hats = np.array([gn.hat(w) for w in omegas])
    out = gn.manifolds.rotation_exp_many(1j * h * hats)
    assert out.dtype == complex
    assert np.abs(out.real - np.eye(3)).max() <= 1e-50
    assert np.allclose(out.imag / h, hats, rtol=1e-15, atol=0.0)
    assert np.array_equal(gn.vee(1j * hats), 1j * omegas)
    assert gn.vee(np.zeros((3, 3), dtype=int)).dtype == float


def test_log_inverts_exp_example(sphere3):
    p = sphere3.point([1, 0, 0])
    v = gn.inverse_retract(EXP, p, sphere3.point([0, 1, 0]))
    assert np.allclose(v.coords, [0, np.pi / 2, 0], atol=1e-15)


def test_log_same_point_is_zero(sphere3):
    p = sphere3.point([1, 0, 0])
    assert gn.inverse_retract(EXP, p, p).norm() == 0.0


def test_log_rotation_example(rotations):
    eye = rotations.identity()
    v = gn.inverse_retract(EXP, eye, rotations.point_from_matrix(gn.rotation_exp(gn.hat([0.0, 0.0, 0.3]))))
    assert np.allclose(v.matrix, 0.3 * SO3_GENERATORS[2], atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_log_exp_round_trip(sphere3, rotations, seed):
    rng = gn.rng_for(seed)
    for manifold in (sphere3, rotations):
        p = gn.random_point(manifold, rng)
        v = gn.random_tangent(p, rng).scaled(rng.uniform(0.01, 2.0))
        back = gn.inverse_retract(EXP, p, manifold.exp_map(v))
        assert np.linalg.norm(back.coords - v.coords) <= 1e-9 * max(1.0, v.norm())
        assert back.norm() == pytest.approx(
            manifold.geodesic_distance(p, manifold.exp_map(v)), abs=1e-12
        )


def test_log_cut_locus(sphere3, rotations):
    p = sphere3.point([1, 0, 0])
    with pytest.raises(gn.CutLocusError):
        gn.inverse_retract(EXP, p, sphere3.point([-1, 0, 0]))
    eye = rotations.identity()
    half_turn = rotations.point_from_matrix(np.diag([-1.0, -1.0, 1.0]))
    with pytest.raises(gn.CutLocusError):
        gn.inverse_retract(EXP, eye, half_turn)


@pytest.mark.parametrize("gap", [1.5e-6, 1e-4, 3e-4, 1e-3])
def test_sphere_log_near_the_cut_locus_is_tangent_or_cut_locus_error(gap):
    # At distance pi - gap, theta/s magnifies the rounding of the rejection:
    # below gap ~3e-4 the scaled rejection can miss tangency, which is a
    # CutLocusError (it was a ContractError), never an escaped non-tangent row.
    rng = gn.rng_for(31)
    outcomes = []
    for n in (3, 10):
        sphere = gn.Sphere(n)
        for _ in range(100):
            p = gn.random_point(sphere, rng)
            q = sphere.exp_map(gn.random_tangent(p, rng).scaled(np.pi - gap))
            try:
                v = gn.inverse_retract(EXP, p, q)
            except gn.CutLocusError:
                outcomes.append(False)
                continue
            gn.TangentVector(p, v.coords)  # tangent to working precision
            assert v.norm() == pytest.approx(np.pi - gap, abs=1e-6)
            outcomes.append(True)
    assert (all(outcomes) if gap >= 1e-3 else not all(outcomes))


def test_distance_examples(sphere3, rotations):
    assert sphere3.geodesic_distance(
        sphere3.point([1, 0, 0]), sphere3.point([0, 1, 0])
    ) == pytest.approx(np.pi / 2, abs=1e-15)
    eye = rotations.identity()
    quarter = rotations.point_from_matrix([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
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
    v = gn.TangentVector(p, [0, 1e-9, 0])
    q = sphere3.exp_map(v)
    assert sphere3.geodesic_distance(p, q) == pytest.approx(1e-9, rel=1e-6)


# ---- tangent bases


def test_basis_at_first_axis(sphere3):
    frame = sphere3.tangent_basis(sphere3.point([1, 0, 0]))
    assert np.allclose(frame, [[0, 1, 0], [0, 0, 1]], atol=1e-15)


def test_basis_gram_identity(sphere3, rotations):
    rng = gn.rng_for(3)
    for manifold in (sphere3, gn.Sphere(5), rotations):
        p = gn.random_point(manifold, rng)
        frame = manifold.tangent_basis(p)
        assert len(frame) == manifold.intrinsic_dim
        assert np.allclose(frame @ frame.T, np.eye(len(frame)), atol=1e-10)


def test_basis_rotation_generators(rotations):
    frame = rotations.tangent_basis(rotations.identity())
    for vec, gen in zip(frame, SO3_GENERATORS):
        assert np.allclose(vec.reshape(3, 3), gen / np.sqrt(2.0), atol=1e-15)


def test_basis_deterministic(sphere3):
    # two points at the same coordinates build their frames independently
    b1 = sphere3.tangent_basis(gn.random_point(sphere3, gn.rng_for(4)))
    b2 = sphere3.tangent_basis(gn.random_point(sphere3, gn.rng_for(4)))
    assert np.array_equal(b1, b2)


def test_basis_coordinates_round_trip(sphere3):
    p = gn.random_point(sphere3, gn.rng_for(5))
    v = sphere3.tangent_project(p, gn.rng_for(6).standard_normal(3))
    coeffs = row_dots(p.frame, v.coords)
    back = frame_sums(coeffs, p.frame)
    assert np.allclose(back, v.coords, atol=1e-13)


# ---- the cached frame


def _gram_schmidt_reference(p):
    """Candidate-by-candidate modified Gram-Schmidt over the standard basis,
    skipping the candidate the frame puts last: the first e_k with
    |x[k+1:]| <= 1e-8 |x[k:]|, or e_{n-1}.  The frame ``p.frame`` must match
    to rounding.  The tails are taken as the frame takes them (``hypot``), so
    the two agree on the skipped candidate even when a tail ratio rounds to
    exactly 1e-8, where a norm of the projected candidate could fall on
    either side."""
    x = p.coords
    n = len(x)
    tails = np.hypot.accumulate(np.abs(x[::-1]))[::-1]
    short = np.flatnonzero(tails[1:] <= 1e-8 * tails[:-1])
    skipped = short[0] if short.size else n - 1

    def sweep(vec):
        vec = vec - np.dot(x, vec) * x
        for b in vectors:
            vec = vec - np.dot(b, vec) * b
        return vec

    vectors = []
    for i in range(n):
        if i == skipped:
            continue
        cand = np.zeros(n)
        cand[i] = 1.0
        cand = sweep(cand)
        cand = sweep(cand / np.linalg.norm(cand))
        vectors.append(cand / np.linalg.norm(cand))
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
    # |x[k+1:]| just above 1e-8 |x[k:]| (candidate k kept) and just below it
    # (candidate k moved to the end), at the first and at the last candidate
    for ratio in (1.01e-8, 0.99e-8):
        for k in (0, n - 2):
            x = np.full(n, 0.3)
            x[k] = 1.0
            x[k + 1:] = ratio / np.sqrt(n - 1 - k)
            points.append(manifold.point(x / np.linalg.norm(x)))
    # entries whose squares underflow, before and after the large one
    for k in (0, n // 2, n - 1):
        x = np.full(n, 1e-170)
        x[k] = 1.0
        points.append(manifold.point(x))
    return points


def _assert_orthonormal_tangent_frame(p, frame):
    n = len(p.coords)
    assert frame.shape == (n - 1, n)
    assert np.max(np.abs(frame @ frame.T - np.eye(n - 1))) <= 1e-14
    assert np.max(np.abs(frame @ p.coords)) <= 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3, 10, 20, 50])
def test_sphere_frame_equals_reference_gram_schmidt(n):
    for p in _frame_points(n):
        reference = _gram_schmidt_reference(p)
        assert p.frame.shape == reference.shape
        assert np.max(np.abs(p.frame - reference)) <= 1e-14
        _assert_orthonormal_tangent_frame(p, p.frame)
        assert p.manifold.tangent_basis(p).tobytes() == p.frame.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3, 10, 20, 50])
def test_every_sphere_frame_passes_the_tangency_check(n):
    # probe stencils are sums of frame rows and go to the retraction kernel
    # unchecked, so each frame must pass the check a caller's rows get: at
    # the skip boundary, with underflowing squares and with a subnormal tail
    # too
    points = _frame_points(n)
    points += [gn.Sphere(len(e)).point(np.array(e) / np.linalg.norm(e))
               for e in ([1.0, 1e-8], [1.0, 0.0, 1e-8], [1.0, 1e-8, 0.0]) if len(e) == n]
    if n == 50:
        x = 10.0 ** (-7.0 * np.arange(50))
        points.append(gn.Sphere(50).point(x / np.linalg.norm(x)))
    for p in points:
        p.manifold._check_tangents(p, p.frame)


def test_every_rotation_frame_passes_the_tangency_check(rotations):
    points = [rotations.point(np.eye(3).reshape(9))]
    points += [gn.random_point(rotations, gn.rng_for(seed)) for seed in range(20)]
    points.append(rotations.point(gn.rotation_exp(gn.hat(np.array([0.0, 0.0, np.pi - 1e-9]))).reshape(9)))
    for p in points:
        rotations._check_tangents(p, p.frame)


@pytest.mark.filterwarnings("error")
def test_sphere_frame_with_subnormal_tail():
    # |x[k:]| falls by 1e-7 per entry, so the last entries are subnormal or
    # zero and 1e-8 |x[k:]| underflows; the first zero tail is skipped
    x = 10.0 ** (-7.0 * np.arange(50))
    p = gn.Sphere(50).point(x / np.linalg.norm(x))
    _assert_orthonormal_tangent_frame(p, p.frame)
    assert np.max(np.abs(p.frame - _gram_schmidt_reference(p))) <= 1e-14


@pytest.mark.parametrize("entries", [[1.0, 1e-8], [1.0, 0.0, 1e-8], [1.0, 1e-8, 0.0], [1e3, 1e-5]])
def test_sphere_frame_at_the_skip_boundary(entries):
    # |x[1:]| is exactly 1e-8 |x|: e_0 goes last, in the frame and the reference
    v = np.array(entries) / max(entries)
    p = gn.Sphere(len(entries)).point(v / np.linalg.norm(v))
    assert np.max(np.abs(p.frame - _gram_schmidt_reference(p))) <= 1e-14


def test_sphere_frame_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.floats(-1e3, 1e3, allow_nan=False)
    vectors = st.integers(2, 50).flatmap(lambda n: st.lists(entries, min_size=n, max_size=n))

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(vectors)
    def check(entries):
        # scaled to a largest entry of 1 first: the squares of entries below
        # ~1e-154 are subnormal, and a norm taken from them is not accurate
        # enough for the result to pass the unit-length check
        v = np.array(entries)
        hypothesis.assume(np.abs(v).max() > 0.0)
        v = v / np.abs(v).max()
        p = gn.Sphere(len(entries)).point(v / np.linalg.norm(v))
        _assert_orthonormal_tangent_frame(p, p.frame)
        assert np.max(np.abs(p.frame - _gram_schmidt_reference(p))) <= 1e-14

    check()


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
        assert manifold.tangent_basis(p).tobytes() == p.frame.tobytes()  # the builder p.frame cached


@pytest.mark.parametrize("n", [3, 10, 50])
def test_basis_coordinates_equal_vector_loops(n):
    manifold = gn.Sphere(n)
    rng = gn.rng_for(13 + n)
    p = gn.random_point(manifold, rng)
    frame = p.frame
    for _ in range(5):
        v = manifold.tangent_project(p, rng.standard_normal(n))
        loop = np.array([float(np.dot(b, v.coords)) for b in frame])
        assert np.array_equal(row_dots(frame, v.coords), loop)
        coeffs = rng.standard_normal(len(frame))
        ambient = np.zeros(n)
        for c, b in zip(coeffs, frame):
            ambient += c * b
        assert np.array_equal(frame_sums(coeffs, frame), ambient)
