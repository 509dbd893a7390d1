import numpy as np
import pytest

import geonewton as gn
from geonewton import calculus
from geonewton.calculus import apply_many, derivatives_cs
from geonewton.manifolds import PointRows, row_dots
from oracles import riemannian_hessian


EXP = gn.RetractionSpec("exp")
PROJ = gn.RetractionSpec("projection")
PERT = gn.RetractionSpec("perturbed")
CAY = gn.RetractionSpec("cayley")


# ---- objective evaluation and oracles


def test_rayleigh_values(sphere3, rayleigh_321):
    assert rayleigh_321.value(sphere3.point([1, 0, 0])) == 3.0
    x = sphere3.point(np.array([1, 1, 0]) / np.sqrt(2))
    assert rayleigh_321.value(x) == pytest.approx(2.5, abs=1e-15)


def test_procrustes_value_at_identity(rotations):
    objective = gn.ProcrustesTrace(np.eye(3))
    assert objective.value(rotations.identity()) == -3.0


def test_rayleigh_requires_symmetric_matrix():
    with pytest.raises(gn.ContractError):
        gn.Rayleigh([[1.0, 2.0], [0.0, 1.0]])


def test_objective_manifold_mismatch(sphere3, rotations):
    with pytest.raises(gn.ConfigurationError):
        gn.Rayleigh(np.eye(3)).value(rotations.identity())
    with pytest.raises(gn.ConfigurationError):
        gn.ProcrustesTrace(np.eye(3)).value(sphere3.point([1, 0, 0]))


def test_analytic_gradient_formula(sphere3, rayleigh_321):
    x = sphere3.point(np.array([1, 1, 0]) / np.sqrt(2))
    g = rayleigh_321.analytic_gradient(x)
    expected = np.array([1, -1, 0]) / np.sqrt(2)
    assert np.allclose(g.coords, expected, atol=1e-14)


def test_analytic_gradient_zero_at_eigenvectors(sphere3, rayleigh_321):
    for axis in np.eye(3):
        assert rayleigh_321.analytic_gradient(sphere3.point(axis)).norm() <= 1e-14


def test_procrustes_gradient_zero_at_polar(rotations):
    objective = gn.ProcrustesTrace(np.eye(3))
    assert objective.analytic_gradient(rotations.identity()).norm() <= 1e-14


def test_polar_factor_recovers_rotation():
    rot = gn.rotation_exp(gn.hat([0.0, 0.0, 0.7]))
    objective = gn.ProcrustesTrace(rot @ np.diag([2.0, 1.5, 1.0]))
    assert np.allclose(objective.polar_factor().matrix, rot, atol=1e-12)


def _tilted_instance(seed):
    n = 3 + seed % 4
    tilt = gn.rng_for(1000 + seed).uniform(-1.0, 1.0, n)
    return gn.TiltedRayleigh(gn.seeded_instance(seed, "rayleigh", n).matrix, tilt)


def _brockett_instance(seed):
    rotation = gn.seeded_instance(seed, "procrustes").polar_factor().matrix
    return gn.Brockett(rotation, [3.0, 2.0, 1.0], [1.0, 2.0, 4.0])


def test_tilted_minimizer_is_critical():
    for seed in range(12):
        objective = _tilted_instance(seed)
        x = objective.minimizer()
        assert objective.analytic_gradient(x).norm() <= 1e-10
        # (A - lam I) x = -b with lam below the spectrum: the global minimizer
        residual = (objective.matrix - objective.multiplier * np.eye(len(x.coords))) @ x.coords
        assert np.linalg.norm(residual + objective.tilt) <= 1e-10
        assert objective.multiplier < np.linalg.eigvalsh(objective.matrix)[0]
        rng = gn.rng_for(1100 + seed)
        for _ in range(20):
            q = gn.random_point(x.manifold, rng)
            assert objective.value(x) <= objective.value(q)


def test_brockett_minimizer_is_critical(rotations):
    for seed in range(12):
        objective = _brockett_instance(seed)
        u = objective.minimizer()
        assert objective.analytic_gradient(u).norm() <= 1e-10
        rng = gn.rng_for(1200 + seed)
        for _ in range(20):
            assert objective.value(u) <= objective.value(gn.random_point(rotations, rng))


@pytest.mark.parametrize("c", [1.0, 1e3, 1e6])
def test_sphere_gradients_at_the_optimum_are_tangent_at_every_scale(c):
    # one projection of 2 (A x + b) leaves its rounding along x, about
    # eps c |A| at a critical point, which fails the tangency check once c
    # passes about 1e3; the second projection removes it
    cases = []
    for seed in range(20):
        unscaled = gn.seeded_instance(seed, "rayleigh", 10)
        cases.append((gn.Rayleigh(c * unscaled.matrix), gn.rayleigh_top_eigenvector(unscaled)))
    for seed in range(12):
        unscaled = _tilted_instance(seed)
        cases.append((gn.TiltedRayleigh(c * unscaled.matrix, c * unscaled.tilt), unscaled.minimizer()))
    for objective, p in cases:
        g = objective.analytic_gradient(p)
        gn.TangentVector(p, g.coords)  # checked: tangent at p
        assert g.norm() <= 1e-13 * abs(objective.value(p))


@pytest.mark.parametrize(
    "instance, retractions, seed_base",
    [(_tilted_instance, (EXP, PROJ), 1300), (_brockett_instance, (EXP, CAY), 1400)],
)
def test_tilted_and_brockett_oracle_agreement(instance, retractions, seed_base):
    for seed in range(8):
        objective = instance(seed)
        manifold = objective.minimizer().manifold
        p = gn.random_point(manifold, gn.rng_for(seed_base + seed))
        exact_grad = objective.analytic_gradient(p)
        exact_hess = riemannian_hessian(objective, p)
        for retraction in retractions:
            fd_grad = gn.gradient_fd(objective, retraction, p)
            assert np.linalg.norm(fd_grad.coords - exact_grad.coords) <= 1e-6 * (
                1.0 + exact_grad.norm()
            )
            fd_hess = gn.hessian_fd(objective, retraction, p)
            assert np.linalg.norm(fd_hess.matrix - exact_hess, "fro") <= 1e-4 * (
                1.0 + np.linalg.norm(exact_hess, "fro")
            )


def test_tilted_rejects_degenerate_tilts():
    a = np.diag([3.0, 2.0, 1.0])
    with pytest.raises(gn.ContractError, match="hard case"):
        gn.TiltedRayleigh(a, [1.0, 1.0, 0.0])  # no component along e3
    with pytest.raises(gn.ContractError, match="hard case"):
        gn.TiltedRayleigh(a, [0.0, 0.0, 0.0])
    with pytest.raises(gn.ContractError, match="zero cubic"):
        gn.TiltedRayleigh(a, [0.0, 0.0, 0.7])  # minimizer -e3, pullback even


def test_brockett_rejects_even_pullback_and_bad_weights():
    with pytest.raises(gn.ContractError, match="zero cubic"):
        gn.Brockett(np.eye(3), [2.0, 1.5, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(gn.ContractError):
        gn.Brockett(np.eye(3), [1.0, 2.0, 3.0], [1.0, 2.0, 4.0])  # m ascending
    with pytest.raises(gn.ContractError):
        gn.Brockett(np.diag([1.0, 1.0, -1.0]), [3.0, 2.0, 1.0], [1.0, 2.0, 4.0])


def test_brockett_cubic_coefficient_matches_pullback():
    # third-order coefficient of J(U expm(hat(s w))) along w = (1, 1, 1)
    objective = _brockett_instance(0)
    u = objective.minimizer().matrix
    rotations = objective.minimizer().manifold

    def pullback(s):
        return objective.value(rotations.point_from_matrix(u @ gn.rotation_exp(gn.hat([s, s, s]))))

    h = 1e-2
    third = (pullback(2 * h) - 2 * pullback(h) + 2 * pullback(-h) - pullback(-2 * h)) / (2 * h**3)
    assert third / 6.0 == pytest.approx(objective.cubic_coefficient, rel=1e-2)


# ---- finite-difference gradient


def test_gradient_fd_matches_example(sphere3, rayleigh_321):
    x = sphere3.point(np.array([1, 1, 0]) / np.sqrt(2))
    result = gn.gradient_fd(rayleigh_321, PROJ, x)
    expected = np.array([0.707107, -0.707107, 0.0])
    assert np.allclose(result.coords, expected, atol=1e-6)
    assert result.base is x


def test_gradient_fd_zero_at_critical_points(sphere3, rotations, rayleigh_321):
    assert gn.gradient_fd(rayleigh_321, EXP, sphere3.point([1, 0, 0])).norm() <= 1e-7
    objective = gn.ProcrustesTrace(np.eye(3))
    assert gn.gradient_fd(objective, EXP, rotations.identity()).norm() <= 1e-7


@pytest.mark.parametrize("retraction", [EXP, PROJ])
def test_gradient_oracle_agreement(retraction):
    # seeded instances across sphere dimensions 3..6
    for seed in range(12):
        n = 3 + seed % 4
        objective = gn.seeded_instance(seed, "rayleigh", n)
        p = gn.random_point(gn.Sphere(n), gn.rng_for(500 + seed))
        fd = gn.gradient_fd(objective, retraction, p)
        exact = objective.analytic_gradient(p)
        assert np.linalg.norm(fd.coords - exact.coords) <= 1e-6 * (1.0 + exact.norm())


def _shipped_objectives():
    """Each shipped objective with its manifold and the families defined there."""
    for seed in range(2):
        n = 3 + 7 * seed
        yield gn.seeded_instance(seed, "rayleigh", n), gn.Sphere(n), (EXP, PROJ, PERT)
        tilted = _tilted_instance(seed)
        yield tilted, gn.Sphere(len(tilted.matrix)), (EXP, PROJ, PERT)
        yield gn.seeded_instance(seed, "procrustes"), gn.Rotations3(), (EXP, CAY)
        yield _brockett_instance(seed), gn.Rotations3(), (EXP, CAY)


def test_complex_step_gradient_matches_the_oracle():
    # Nothing is subtracted, so the read is good to rounding: the FD read is
    # good to about 1e-10 relative here, the complex read to about 1e-15.
    rng = gn.rng_for(700)
    for objective, manifold, families in _shipped_objectives():
        assert objective.holomorphic is True
        for _ in range(5):
            p = gn.random_point(manifold, rng)
            exact = objective.analytic_gradient(p)
            for spec in families:
                read = gn.gradient_cs(objective, spec, p)
                assert read.base is p
                assert np.linalg.norm(read.coords - exact.coords) <= 1e-13 * exact.norm()


def test_complex_step_gradient_checks_its_spec_first(rotations):
    calls = []

    class Counting(gn.ProcrustesTrace):
        def values(self, p, points):
            calls.append(points)
            return super().values(p, points)

    with pytest.raises(gn.ConfigurationError):
        gn.gradient_cs(Counting(np.eye(3)), PROJ, rotations.identity())
    assert calls == []


# ---- complex-step gradient and Hessian in one batch


def _every_manifold_and_family(sizes=(2, 3, 10, 20)):
    for n in sizes:
        for spec in (EXP, PROJ, PERT):
            yield gn.Sphere(n), spec
    for spec in (EXP, CAY):
        yield gn.Rotations3(), spec


@pytest.mark.parametrize("manifold,spec", _every_manifold_and_family(), ids=lambda x: getattr(x, "family", repr(x)))
def test_derivatives_cs_gradient_is_gradient_cs_byte_for_byte(manifold, spec):
    # its first d rows are gradient_cs's, and each row rounds on its own
    for seed in range(3):
        if isinstance(manifold, gn.Rotations3):
            objectives = (gn.seeded_instance(seed, "procrustes"), _brockett_instance(seed))
        else:
            n = manifold.ambient_dim
            tilt = gn.rng_for(1500 + seed).uniform(-1.0, 1.0, n)
            objectives = (gn.seeded_instance(seed, "rayleigh", n),
                          gn.TiltedRayleigh(gn.seeded_instance(seed, "rayleigh", n).matrix, tilt))
        p = gn.random_point(manifold, gn.rng_for(1600 + seed))
        for objective in objectives:
            grad, hess = derivatives_cs(objective, spec, p)
            assert grad.base is p and hess.base is p
            assert grad.coords.tobytes() == gn.gradient_cs(objective, spec, p).coords.tobytes()


@pytest.mark.parametrize("manifold", (gn.Sphere(2), gn.Sphere(10), gn.Rotations3()), ids=repr)
def test_derivatives_cs_reads_one_batch_of_d2_plus_2d_rows(monkeypatch, manifold):
    # one checked retraction and one values call, over d^2 + 2d complex rows
    if isinstance(manifold, gn.Rotations3):
        objective = gn.seeded_instance(5, "procrustes")
    else:
        objective = gn.seeded_instance(5, "rayleigh", manifold.ambient_dim)
    p = gn.random_point(manifold, gn.rng_for(1650))
    batches, read = [], []
    retract_rows, values = calculus._retract_rows, type(objective).values
    monkeypatch.setattr(calculus, "_retract_rows", lambda *args: batches.append(args[2]) or retract_rows(*args))
    monkeypatch.setattr(type(objective), "values", lambda self, q, rows: read.append(rows) or values(self, q, rows))
    derivatives_cs(objective, gn.RetractionSpec("exp"), p)
    monkeypatch.undo()
    dim = manifold.intrinsic_dim
    assert len(batches) == len(read) == 1
    assert batches[0].shape == (dim * dim + 2 * dim, manifold.ambient_dim) and batches[0].dtype.kind == "c"


def test_derivatives_cs_hessian_matches_the_oracles():
    # exactly symmetric, and good to about 1e-10 relative where hessian_fd is
    # good to about 1e-7 (the order-2 families share the Riemannian Hessian)
    cases = []
    for seed in range(4):
        n = 3 + 7 * (seed % 2) + seed
        cases.append((gn.seeded_instance(seed, "rayleigh", n), gn.Sphere(n), (EXP, PROJ)))
        tilted = _tilted_instance(seed)
        cases.append((tilted, gn.Sphere(len(tilted.matrix)), (EXP, PROJ)))
        cases.append((_brockett_instance(seed), gn.Rotations3(), (EXP, CAY)))
    rng = gn.rng_for(1700)
    for objective, manifold, families in cases:
        for _ in range(3):
            p = gn.random_point(manifold, rng)
            exact = riemannian_hessian(objective, p)
            for spec in families:
                _, hess = derivatives_cs(objective, spec, p)
                assert np.array_equal(hess.matrix, hess.matrix.T)
                assert np.linalg.norm(hess.matrix - exact) <= 1e-9 * np.linalg.norm(exact)


def test_derivatives_cs_scale_exactly_with_the_objective(scaled):
    # the steps do not depend on J, so 2^k J gives 2^k times each derivative
    for manifold, spec in _every_manifold_and_family():
        if isinstance(manifold, gn.Rotations3):
            objective = gn.seeded_instance(3, "procrustes")
        else:
            objective = gn.seeded_instance(3, "rayleigh", manifold.ambient_dim)
        p = gn.random_point(manifold, gn.rng_for(1800))
        grad, hess = derivatives_cs(objective, spec, p)
        for k in (-20, 10, 300):
            scaled_grad, scaled_hess = derivatives_cs(scaled(objective, 2.0 ** k), spec, p)
            assert np.array_equal(scaled_grad.coords, 2.0 ** k * grad.coords)
            assert np.array_equal(scaled_hess.matrix, 2.0 ** k * hess.matrix)


def _reference_stencil(frame):
    """derivatives_cs's stencil written out as before its index plan: the
    gradient rows i h e_i, then i h e_i + delta e_j and i h e_i - delta e_j
    for i <= j, each as a complex-plus-real sum of fancy-indexed rows."""
    rows, cols = np.triu_indices(len(frame))
    imaginary = (1j * calculus.COMPLEX_STEP) * frame
    real = calculus.GRADIENT_STEP_FACTOR * frame
    return np.concatenate([imaginary, imaginary[rows] + real[cols], imaginary[rows] - real[cols]])


def _reference_derivatives_cs(objective, spec, p):
    """derivatives_cs as before its index plan: the written-out stencil, and
    the Hessian scattered into both triangles."""
    dim = len(p.frame)
    rows, cols = np.triu_indices(dim)
    values = calculus._evaluate(objective, p, calculus._retract_rows(spec, p, _reference_stencil(p.frame)), complex).imag
    n = len(rows)
    hessian = np.empty((dim, dim))
    hessian[rows, cols] = hessian[cols, rows] = (
        (values[dim: dim + n] - values[dim + n:]) / (2.0 * calculus.COMPLEX_STEP * calculus.GRADIENT_STEP_FACTOR))
    return calculus.frame_sums(values[:dim] / calculus.COMPLEX_STEP, p.frame), hessian


# d = 1 up to d = 14, the Newton crossover
@pytest.mark.parametrize("manifold,spec", _every_manifold_and_family((2, 3, 5, 10, 15)),
                         ids=lambda x: getattr(x, "family", repr(x)))
def test_derivatives_cs_plan_reproduces_the_written_out_stencil(manifold, spec, monkeypatch):
    # the plan's gathers write the same probe rows, signed zeros included,
    # and its mirror gather the same Hessian, byte for byte
    stencils = []
    retract_rows = calculus._retract_rows
    monkeypatch.setattr(calculus, "_retract_rows", lambda *args: stencils.append(args[2]) or retract_rows(*args))
    points = [gn.random_point(manifold, gn.rng_for(1950 + seed)) for seed in range(5)]
    if manifold == gn.Sphere(5):
        points.append(manifold.point([1.0, 0.0, 0.0, 0.0, 0.0]))  # its frame holds -0.0 entries
        assert np.signbit(points[-1].frame[points[-1].frame == 0.0]).any()
    for seed, p in enumerate(points):
        if isinstance(manifold, gn.Rotations3):
            objective = gn.seeded_instance(seed, "procrustes")
        else:
            objective = gn.seeded_instance(seed, "rayleigh", manifold.ambient_dim)
        gradient, hessian = _reference_derivatives_cs(objective, spec, p)
        stencils.clear()
        grad, hess = derivatives_cs(objective, spec, p)
        assert stencils.pop().tobytes() == _reference_stencil(p.frame).tobytes()
        assert grad.coords.tobytes() == gradient.tobytes()
        assert hess.matrix.tobytes() == hessian.tobytes()


@pytest.mark.parametrize("dim", (1, 2, 9, 14))
def test_complex_plan_is_cached_and_read_only(dim):
    plan = calculus._plan(dim)
    assert calculus._plan(dim) is plan
    (first, second), _, _, mirror = plan
    assert len(first) == dim * dim + 2 * dim and len(second) == dim * dim + dim  # the Hessian rows' second gather
    assert mirror.shape == (dim, dim) and np.array_equal(mirror, mirror.T)
    for index in (first, second, mirror, calculus._COMPLEX_STEPS):  # and the step column of the rows' one product
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[...] = 0


def test_shared_row_builder_writes_the_complex_stencil_too():
    # derivatives_cs writes the builder's two steps out for one frame; the
    # builder itself gives the same rows, signed zeros included
    for manifold in (gn.Sphere(2), gn.Sphere(5), gn.Sphere(10), gn.Rotations3()):
        points = [gn.random_point(manifold, gn.rng_for(1980 + seed)) for seed in range(3)]
        if manifold == gn.Sphere(5):
            points.append(manifold.point([1.0, 0.0, 0.0, 0.0, 0.0]))  # its frame holds -0.0 entries
        for p in points:
            first, second = calculus._plan(len(p.frame))[0]
            rows = calculus._stencil(calculus._COMPLEX_STEPS, p.frame, first, second)
            assert rows.tobytes() == _reference_stencil(p.frame).tobytes()


@pytest.mark.parametrize("manifold,spec", _every_manifold_and_family((2, 3, 10)),
                         ids=lambda x: getattr(x, "family", repr(x)))
def test_complex_stencil_values_do_not_depend_on_the_rows_around_them(manifold, spec, monkeypatch):
    # The invariant a stacked complex read rests on: each derivatives_cs
    # stencil's values are the same bytes evaluated alone, as its first d rows
    # alone (the batch gradient_cs reads), and stacked after another point's
    # stencil over a PointRows base.
    stencils = []
    retract_rows = calculus._retract_rows
    monkeypatch.setattr(calculus, "_retract_rows", lambda *args: stencils.append(args[2]) or retract_rows(*args))
    for seed in range(4):
        p, q = (gn.random_point(manifold, gn.rng_for(2100 + 2 * seed + k)) for k in (0, 1))
        if isinstance(manifold, gn.Rotations3):
            objectives = [gn.seeded_instance(seed, "procrustes")]
        else:
            rayleigh = gn.seeded_instance(seed, "rayleigh", manifold.ambient_dim)
            tilt = gn.rng_for(2200 + seed).uniform(-1.0, 1.0, manifold.ambient_dim)
            objectives = [rayleigh, gn.TiltedRayleigh(rayleigh.matrix, tilt)]
        for objective in objectives:
            stencils.clear()
            derivatives_cs(objective, spec, p)
            derivatives_cs(objective, spec, q)
            rows_p, rows_q = stencils
            dim = len(p.frame)

            def values(base, points, rows):
                return calculus._evaluate(objective, base, retract_rows(spec, points, rows), complex)

            alone = values(p, p, rows_p)
            assert values(p, p, rows_p[:dim]).tobytes() == alone[:dim].tobytes()
            stacked = values(q, PointRows.of([q, p], len(rows_p)), np.concatenate([rows_q, rows_p]))
            assert stacked[len(rows_q):].tobytes() == alone.tobytes()
            assert stacked[:len(rows_q)].tobytes() == values(q, q, rows_q).tobytes()


class _NaNAtRow:
    """Delegates to ``inner``, but one row of each ``values`` batch is NaN."""

    holomorphic = True

    def __init__(self, inner, row):
        self.inner, self.row = inner, row

    def values(self, p, points):
        out = np.array(self.inner.values(p, points))
        out[self.row] = np.nan
        return out


def test_derivatives_cs_non_finite_mixed_probe_raises(sphere3, rayleigh_321):
    # on sphere3 rows 0 and 1 are the gradient's and rows 2-7 mixed probes
    p = gn.random_point(sphere3, gn.rng_for(1900))
    for row in (2, 4, 7):
        with pytest.raises(gn.EvaluationError):
            derivatives_cs(_NaNAtRow(rayleigh_321, row), EXP, p)


def test_gradient_vector_is_tangent(sphere3, rayleigh_321):
    p = gn.random_point(sphere3, gn.rng_for(21))
    g = gn.gradient_fd(rayleigh_321, EXP, p)
    assert abs(np.dot(g.coords, p.coords)) <= 1e-10


# ---- finite-difference Hessian


def test_hessian_fd_example(sphere3, rayleigh_321):
    h = gn.hessian_fd(rayleigh_321, EXP, sphere3.point([1, 0, 0]))
    assert np.allclose(h.matrix, np.diag([-2.0, -4.0]), atol=1e-4)


def test_hessian_exactly_symmetric(rayleigh_321):
    p = gn.random_point(gn.Sphere(3), gn.rng_for(22))
    h = gn.hessian_fd(rayleigh_321, EXP, p)
    assert np.array_equal(h.matrix, h.matrix.T)


@pytest.mark.parametrize("retraction", [EXP, PROJ])
def test_hessian_oracle_agreement(retraction):
    for seed in range(8):
        n = 3 + seed % 4
        objective = gn.seeded_instance(seed, "rayleigh", n)
        p = gn.random_point(gn.Sphere(n), gn.rng_for(600 + seed))
        fd = gn.hessian_fd(objective, retraction, p)
        exact = riemannian_hessian(objective, p)
        assert np.linalg.norm(fd.matrix - exact, "fro") <= 1e-4 * (
            1.0 + np.linalg.norm(exact, "fro")
        )


def test_hessian_shift_under_order1_retraction(rayleigh_321):
    # away from critical points the two Hessians differ by 2<grad,u> I
    sphere = gn.Sphere(3)
    for seed in range(5):
        rng = gn.rng_for(700 + seed)
        p = gn.random_point(sphere, rng)
        if rayleigh_321.analytic_gradient(p).norm() < 0.1:
            continue
        h_exp = gn.hessian_fd(rayleigh_321, EXP, p)
        h_pert = gn.hessian_fd(rayleigh_321, PERT, p)
        shift = 2.0 * np.dot(
            rayleigh_321.analytic_gradient(p).coords, p.frame[0]
        )
        gap = h_pert.matrix - h_exp.matrix - shift * np.eye(2)
        assert np.linalg.norm(gap, "fro") <= 1e-3


def test_hessians_agree_at_critical_point(sphere3, rayleigh_321):
    p = sphere3.point([0, 0, 1])
    h_exp = gn.hessian_fd(rayleigh_321, EXP, p)
    h_pert = gn.hessian_fd(rayleigh_321, PERT, p)
    assert np.abs(h_exp.matrix - h_pert.matrix).max() <= 1e-4


def test_operator_apply_matches_matrix(sphere3, rayleigh_321):
    p = gn.random_point(sphere3, gn.rng_for(23))
    h = gn.hessian_fd(rayleigh_321, EXP, p)
    v = gn.random_tangent(p, gn.rng_for(24))
    out = gn.TangentVector(p, apply_many(h.matrix, h.base.frame, v.coords[None])[0])
    assert np.allclose(
        row_dots(p.frame, out.coords), h.matrix @ row_dots(p.frame, v.coords), atol=1e-12
    )


def test_operator_rejects_asymmetric_matrix(sphere3):
    p = sphere3.point([1, 0, 0])
    with pytest.raises(gn.ContractError):
        gn.SymmetricOperator(p, np.array([[1.0, 2.0], [0.0, 1.0]]))


# ---- Taylor remainder


def test_remainder_zero_vector(sphere3, rayleigh_321):
    p = gn.random_point(sphere3, gn.rng_for(25))
    assert gn.taylor_remainder(rayleigh_321, EXP, p, gn.TangentVector(p, np.zeros(3))) <= 1e-12


def test_remainder_halving_factor(sphere3, rayleigh_321):
    p = gn.random_point(sphere3, gn.rng_for(26))
    v = gn.random_tangent(p, gn.rng_for(27))
    big = gn.taylor_remainder(rayleigh_321, EXP, p, v.scaled(0.1))
    small = gn.taylor_remainder(rayleigh_321, EXP, p, v.scaled(0.05))
    assert big / small >= 7.0


def test_remainder_rejects_vector_based_elsewhere(sphere3, rayleigh_321):
    p = gn.random_point(sphere3, gn.rng_for(29))
    q = gn.random_point(sphere3, gn.rng_for(30))
    v = gn.random_tangent(q, gn.rng_for(31)).scaled(0.01)
    with pytest.raises(gn.ContractError, match="based at a different point"):
        gn.taylor_remainder(rayleigh_321, EXP, p, v)

    probes = []

    class Counting:
        def values(self, base, points):
            probes.append(points)
            return rayleigh_321.values(base, points)

    with pytest.raises(gn.ContractError, match="based at a different point"):
        gn.taylor_remainder(Counting(), EXP, p, v)
    assert probes == []  # rejected before any probe
    # a vector at an equal copy of p is based at p
    w = gn.random_tangent(p, gn.rng_for(32)).scaled(0.01)
    copy = gn.TangentVector(sphere3.point(p.coords), w.coords)
    assert gn.taylor_remainder(rayleigh_321, EXP, p, copy) == gn.taylor_remainder(rayleigh_321, EXP, p, w)


def test_remainder_rejects_derivatives_read_elsewhere(sphere3, rayleigh_321):
    # taylor_remainder reads the gradient and Hessian at p itself and takes
    # none from the caller: read at q, they give a remainder of 6.3e-3 here
    # instead of 2.7e-7.
    p = gn.random_point(sphere3, gn.rng_for(1))
    q = gn.random_point(sphere3, gn.rng_for(2))
    t = gn.random_tangent(p, gn.rng_for(3))
    v = t.scaled(1e-2 / t.norm())
    own = gn.taylor_remainder(rayleigh_321, EXP, p, v)
    assert own <= 1e-6
    grad, hess = gn.gradient_fd(rayleigh_321, EXP, p), gn.hessian_fd(rayleigh_321, EXP, p)
    rows = v.coords[None]
    assert calculus.taylor_remainders(rayleigh_321, EXP, p, rows, grad.coords, hess.matrix, p.frame)[0] == own
    grad, hess = gn.gradient_fd(rayleigh_321, EXP, q), gn.hessian_fd(rayleigh_321, EXP, q)
    assert calculus.taylor_remainders(rayleigh_321, EXP, p, rows, grad.coords, hess.matrix, q.frame)[0] >= 1e-3
    for name, derivative in (("gradient", grad), ("hessian", hess)):
        with pytest.raises(TypeError):
            gn.taylor_remainder(rayleigh_321, EXP, p, v, **{name: derivative})


def test_non_finite_objective_raises():
    class Exploding:
        def values(self, p, points):
            return np.full(len(points), np.inf)

    p = gn.Sphere(3).point([1, 0, 0])
    with pytest.raises(gn.EvaluationError):
        gn.gradient_fd(Exploding(), EXP, p)


def test_concurrent_evaluations_deterministic(sphere3, rayleigh_321):
    # everything is a pure function of immutable values, so hammering the
    # same extraction from worker threads must give bitwise-equal results
    from concurrent.futures import ThreadPoolExecutor

    p = gn.random_point(sphere3, gn.rng_for(28))

    def work(_):
        grad = gn.gradient_fd(rayleigh_321, EXP, p).coords
        hess = gn.hessian_fd(rayleigh_321, PERT, p).matrix
        return grad, hess

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(16)))
    ref_grad, ref_hess = results[0]
    for grad, hess in results[1:]:
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(hess, ref_hess)
