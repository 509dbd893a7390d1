import numpy as np
import pytest

import geonewton as gn
from geonewton import calculus
from geonewton.calculus import REFINED_GRADIENT_STEP_FACTOR, derivatives_cs
from geonewton.manifolds import frame_sums, row_dots
from geonewton.newton import _REFINE_THRESHOLD, _STALL_STEP
from oracles import riemannian_hessian


EXP = gn.RetractionSpec("exp")
PERT = gn.RetractionSpec("perturbed")
PROJ = gn.RetractionSpec("projection")
CAY = gn.RetractionSpec("cayley")


def reference_step(objective, spec, p):
    """The pure Newton update assembled from the public pieces: the FD
    gradient, re-read at the wider step below the refine threshold (the
    smaller read is kept), the FD Hessian, the solve and the retraction."""
    grad = gn.gradient_fd(objective, spec, p)
    if grad.norm() < _REFINE_THRESHOLD:
        refined = gn.gradient_fd(objective, spec, p, step_factor=REFINED_GRADIENT_STEP_FACTOR)
        if refined.norm() < grad.norm():
            grad = refined
    hess = gn.hessian_fd(objective, spec, p)
    return gn.retract(spec, gn.solve_tangent_system(hess, grad))


def make_operator(p, diagonal):
    return gn.SymmetricOperator(p, np.diag(diagonal))


def in_frame(p, coeffs):
    """The tangent vector at p with these coefficients in p.frame."""
    return gn.TangentVector(p, frame_sums(np.asarray(coeffs, dtype=float), p.frame))


# ---- tangent-space solve


def test_solve_diagonal_example(sphere3):
    p = sphere3.point([1, 0, 0])
    op = make_operator(p, [-2.0, -4.0])
    g = in_frame(op.base, [1.0, 2.0])
    s = gn.solve_tangent_system(op, g)
    assert np.allclose(row_dots(p.frame, s.coords), [0.5, 0.5], atol=1e-14)


def test_solve_identity_negates(sphere3):
    p = sphere3.point([1, 0, 0])
    op = make_operator(p, [1.0, 1.0])
    g = in_frame(op.base, [0.3, -0.7])
    s = gn.solve_tangent_system(op, g)
    assert np.allclose(s.coords, -g.coords, atol=1e-14)


def test_solve_condition_guard(sphere3):
    p = sphere3.point([1, 0, 0])
    op = make_operator(p, [1.0, 1e-15])
    g = in_frame(op.base, [1.0, 1.0])
    with pytest.raises(gn.SingularHessianError):
        gn.solve_tangent_system(op, g)


@pytest.mark.parametrize("cap", [np.nan, 1.0])
def test_solve_rejects_a_cap_not_above_one(sphere3, cap):
    # NewtonConfig's rule: a NaN cap would never trip the guard, and this
    # operator would be solved into a step of about 1e14.
    op = make_operator(sphere3.point([1, 0, 0]), [1.0, 1e-14])
    g = in_frame(op.base, [1.0, 1.0])
    with pytest.raises(gn.ContractError, match="cond_cap must exceed 1"):
        gn.solve_tangent_system(op, g, cond_cap=cap)


@pytest.mark.filterwarnings("error")
def test_solve_of_a_system_scaled_past_the_square_range_is_exact(sphere3):
    # H and g times 2^600: every square in the residual guard overflows unless
    # the guard scales its terms back, and the step is the unscaled one bit for bit
    p = gn.random_point(sphere3, gn.rng_for(31))
    matrix = np.array([[2.0, 0.3], [0.3, -1.5]])
    g = in_frame(p, [0.7, -0.2])
    step = gn.solve_tangent_system(gn.SymmetricOperator(p, matrix), g)
    big = 2.0 ** 600
    scaled = gn.solve_tangent_system(gn.SymmetricOperator(p, big * matrix), gn.TangentVector(p, big * g.coords))
    assert scaled.coords.tobytes() == step.coords.tobytes()


def _fd_hessians():
    """Seeded FD Hessians on every sphere family and on SO(3)."""
    for n in (3, 10, 20):
        manifold = gn.Sphere(n)
        objective = gn.seeded_instance(n, "rayleigh", n=n)
        for seed, spec in enumerate((EXP, PROJ, PERT)):
            p = gn.random_point(manifold, gn.rng_for(40 + seed))
            yield gn.hessian_fd(objective, spec, p)
    objective = gn.seeded_instance(3, "procrustes")
    for seed, spec in enumerate((EXP, CAY)):
        yield gn.hessian_fd(objective, spec, gn.random_point(gn.Rotations3(), gn.rng_for(50 + seed)))


def test_condition_estimate_equals_numpy_cond():
    # The estimate is read back through the guard: the solve raises exactly
    # when the cap lies below it, and its message prints it.
    for hess in _fd_hessians():
        cond = float(np.linalg.cond(hess.matrix))
        grad = in_frame(hess.base, np.ones(len(hess.matrix)))
        gn.solve_tangent_system(hess, grad, cond_cap=cond)
        below = float(np.nextafter(cond, 0.0))
        with pytest.raises(gn.SingularHessianError) as info:
            gn.solve_tangent_system(hess, grad, cond_cap=below)
        assert str(info.value) == f"condition estimate {cond:.3e} exceeds cap {below:.3e}"


def test_zero_hessian_condition_is_inf(sphere3):
    # svd gives 0/0 here; np.linalg.cond reads that NaN as inf, and so must the guard
    p = sphere3.point([1, 0, 0])
    op = make_operator(p, [0.0, 0.0])
    assert np.linalg.cond(op.matrix) == np.inf
    g = in_frame(op.base, [1.0, 1.0])
    with pytest.raises(gn.SingularHessianError) as info:
        gn.solve_tangent_system(op, g)
    assert str(info.value) == "condition estimate inf exceeds cap 1.000e+12"


def test_solve_rejects_other_base(sphere3):
    op = make_operator(sphere3.point([1, 0, 0]), [1.0, 1.0])
    g = gn.TangentVector(sphere3.point([0, 1, 0]), [1, 0, 0])
    with pytest.raises(gn.ContractError):
        gn.solve_tangent_system(op, g)


# ---- single steps


def test_critical_point_is_fixed(sphere3, rayleigh_321):
    p = sphere3.point([0, 0, 1])
    out = reference_step(rayleigh_321, EXP, p)
    assert sphere3.geodesic_distance(out, p) <= 1e-9


def test_step_contraction_reference(sphere3, rayleigh_321):
    p = sphere3.point(np.array([1.0, 0.1, 0.0]) / np.linalg.norm([1.0, 0.1, 0.0]))
    target = sphere3.point([1, 0, 0])
    d0 = sphere3.geodesic_distance(p, target)
    d_exp = sphere3.geodesic_distance(reference_step(rayleigh_321, EXP, p), target)
    assert d_exp <= d0**2
    d_pert = sphere3.geodesic_distance(reference_step(rayleigh_321, PERT, p), target)
    assert d_pert <= 5.0 * d0**2


def test_affine_invariance_of_step(sphere3, rayleigh_321):
    # near an eigenvector the tangent Hessian is well conditioned, so the
    # only scaling-dependent parts are rounding-level
    target = sphere3.point([0, 0, 1])
    p = sphere3.exp_map(gn.random_tangent(target, gn.rng_for(30)).scaled(0.1))
    base_next = reference_step(rayleigh_321, EXP, p)
    for c in (3.0, -2.0):
        scaled = gn.Rayleigh(c * rayleigh_321.matrix)
        next_point = reference_step(scaled, EXP, p)
        assert np.linalg.norm(next_point.coords - base_next.coords) <= 1e-8


# ---- full runs


def test_config_validation():
    with pytest.raises(gn.ContractError):
        gn.NewtonConfig(retraction=EXP, tol=0.0)
    with pytest.raises(gn.ContractError):
        gn.NewtonConfig(retraction=EXP, max_iter=0)
    with pytest.raises(gn.ContractError):
        gn.NewtonConfig(retraction=EXP, cond_cap=0.5)
    # NaN compares false both ways; a NaN cap would switch the singular-Hessian guard off
    with pytest.raises(gn.ContractError):
        gn.NewtonConfig(retraction=EXP, tol=np.nan)
    with pytest.raises(gn.ContractError):
        gn.NewtonConfig(retraction=EXP, cond_cap=np.nan)


def test_run_from_exact_critical_point(sphere3, rayleigh_321):
    trace = gn.newton_run(rayleigh_321, gn.NewtonConfig(retraction=EXP), sphere3.point([0, 0, 1]))
    assert trace.status == gn.NewtonStatus.CONVERGED
    assert trace.iterations <= 1


def test_reference_run_converges_fast(sphere3, rayleigh_321):
    p0 = sphere3.point(np.array([0.1, 0.1, 1.0]) / np.linalg.norm([0.1, 0.1, 1.0]))
    trace = gn.newton_run(rayleigh_321, gn.NewtonConfig(retraction=EXP), p0)
    assert trace.status == gn.NewtonStatus.CONVERGED
    assert trace.iterations <= 6
    assert trace.grad_norms[-1] <= 1e-12
    target = sphere3.point([0, 0, 1])
    assert sphere3.geodesic_distance(trace.final_point, target) <= 1e-9


def test_trace_shape_invariants(sphere3, rayleigh_321):
    p0 = sphere3.point(np.array([0.1, 0.1, 1.0]) / np.linalg.norm([0.1, 0.1, 1.0]))
    trace = gn.newton_run(rayleigh_321, gn.NewtonConfig(retraction=EXP), p0)
    assert len(trace.points) == len(trace.step_norms) + 1
    assert len(trace.grad_norms) == len(trace.points)
    assert all(g >= 0 for g in trace.grad_norms)


def test_procrustes_reference_run(rotations):
    objective = gn.ProcrustesTrace(gn.rotation_exp(gn.hat([0.0, 0.0, 0.4])) @ np.diag([2.0, 1.5, 1.0]))
    p0 = rotations.point_from_matrix(gn.rotation_exp(gn.hat([0.0, 0.0, 0.3])))
    trace = gn.newton_run(objective, gn.NewtonConfig(retraction=CAY), p0)
    assert trace.status == gn.NewtonStatus.CONVERGED
    assert trace.iterations <= 8
    polar = objective.polar_factor()
    assert rotations.geodesic_distance(trace.final_point, polar) <= 1e-9


def test_limit_independent_of_retraction(sphere3):
    objective = gn.seeded_instance(5, "rayleigh", 3)
    target = gn.rayleigh_top_eigenvector(objective)
    p0 = sphere3.exp_map(gn.random_tangent(target, gn.rng_for(99)).scaled(0.05))
    finals = []
    for spec in (EXP, PROJ, PERT):
        trace = gn.newton_run(objective, gn.NewtonConfig(retraction=spec, tol=1e-10), p0)
        assert trace.status == gn.NewtonStatus.CONVERGED
        finals.append(trace.final_point)
    for i in range(len(finals)):
        for j in range(i + 1, len(finals)):
            assert sphere3.geodesic_distance(finals[i], finals[j]) <= 1e-9


def test_degenerate_hessian_surfaces(sphere3):
    # repeated eigenvalue: the target critical circle has a flat direction.
    # The finite-difference Hessian floors its smallest singular value near
    # 1e-8, so the guard needs a cap below ~1e8 to see the degeneracy.
    objective = gn.Rayleigh(np.diag([3.0, 2.0, 2.0]))
    start = np.array([0.01, 1.0, 0.015])
    p0 = sphere3.point(start / np.linalg.norm(start))
    config = gn.NewtonConfig(retraction=EXP, cond_cap=1e6)
    trace = gn.newton_run(objective, config, p0)
    assert trace.status == gn.NewtonStatus.SINGULAR_HESSIAN
    assert trace.iterations >= 1


class NaNFromBatch:
    """Delegates to ``inner``, but its ``values`` returns NaN from probe batch
    ``bad`` (counted from 1) on."""

    def __init__(self, inner, bad):
        self.inner, self.bad, self.batches = inner, bad, 0

    def value(self, p):
        return self.inner.value(p)

    def values(self, p, points):
        self.batches += 1
        out = self.inner.values(p, points)
        return np.full_like(out, np.nan) if self.batches >= self.bad else out


def test_nan_objective_ends_run_with_partial_trace(sphere3, rayleigh_321, fd_only):
    # read by FD, as NaNFromBatch is, so that batch 1 is the one gradient read at p0
    p0 = sphere3.point(np.array([0.1, 0.1, 1.0]) / np.linalg.norm([0.1, 0.1, 1.0]))
    config = gn.NewtonConfig(retraction=EXP)
    full = gn.newton_run(fd_only(rayleigh_321), config, p0)
    # batch 1 is the gradient at p0 and batch 2 the Hessian stencil there
    trace = gn.newton_run(NaNFromBatch(rayleigh_321, 2), config, p0)
    assert trace.status == gn.NewtonStatus.EVALUATION_ERROR
    assert trace.iterations == 0
    assert trace.points[0] is p0
    assert trace.grad_norms == full.grad_norms[:1]
    # batch 3 is the gradient read at p1: the step is kept, its read is NaN
    trace = gn.newton_run(NaNFromBatch(rayleigh_321, 3), config, p0)
    assert trace.status == gn.NewtonStatus.EVALUATION_ERROR
    assert trace.iterations == 1
    assert np.array_equal(trace.points[1].coords, full.points[1].coords)
    assert trace.step_norms == full.step_norms[:1]
    assert trace.grad_norms[0] == full.grad_norms[0] and np.isnan(trace.grad_norms[1])


def test_max_iter_status(sphere3, rayleigh_321):
    p0 = sphere3.point(np.array([0.3, 0.3, 1.0]) / np.linalg.norm([0.3, 0.3, 1.0]))
    trace = gn.newton_run(rayleigh_321, gn.NewtonConfig(retraction=EXP, max_iter=1), p0)
    assert trace.status == gn.NewtonStatus.MAX_ITER
    assert trace.iterations == 1


# ---- stalling at the finite-difference floor
#
# The shipped objectives are read by complex step, which has no such floor;
# these runs read an objective that does not declare itself holomorphic, as
# any objective outside the package may be, by finite differences.


@pytest.mark.parametrize("scale", [1e3, 1e6])
def test_scaled_rayleigh_stalls_at_the_floor(sphere3, scale, fd_only):
    # The gradient read plateaus far above tol (1.9e-8 at 1e3, 2.9e-5 at 1e6)
    # once the iterate is at the optimum; the run must say so and stop.
    objective = fd_only(gn.Rayleigh(scale * np.diag([3.0, 2.0, 1.0])))
    p0 = sphere3.point(np.array([0.1, 0.1, 1.0]) / np.linalg.norm([0.1, 0.1, 1.0]))
    config = gn.NewtonConfig(retraction=EXP)
    trace = gn.newton_run(objective, config, p0)
    assert trace.status == gn.NewtonStatus.STALLED
    assert trace.iterations <= 8
    assert trace.grad_norms[-1] > config.tol
    assert sphere3.geodesic_distance(trace.final_point, sphere3.point([0, 0, 1])) <= 1e-9
    # The stall test only ends the run: every kept iterate is exactly the
    # pure Newton update of the one before it, and so is the one step of a
    # run started there.
    one_step = gn.NewtonConfig(retraction=EXP, max_iter=1)
    for before, after in zip(trace.points, trace.points[1:]):
        expected = reference_step(objective, EXP, before).coords
        assert np.array_equal(after.coords, expected)
        assert np.array_equal(gn.newton_run(objective, one_step, before).final_point.coords, expected)


def test_circle_perturbed_stalls_at_the_floor(fd_only):
    circle = gn.Sphere(2)
    objective = fd_only(gn.Rayleigh(np.diag([2.0, 1.0])))
    p0 = circle.point(np.array([1.0, 0.1]) / np.linalg.norm([1.0, 0.1]))
    trace = gn.newton_run(objective, gn.NewtonConfig(retraction=PERT), p0)
    assert trace.status == gn.NewtonStatus.STALLED
    assert trace.iterations <= 10
    assert circle.geodesic_distance(trace.final_point, circle.point([1, 0])) <= 1e-9


def test_single_bounce_does_not_stall(fd_only):
    # Once the steps are at most sqrt(eps) the gradient read may rise once
    # on finite-difference noise; a rise right after a new minimum must not
    # end the run.  Which starts bounce depends on rounding, so scan seeded
    # starts near the optimum and require at least one bounced run that then
    # converges.
    sphere10 = gn.Sphere(10)
    converged_after_bounce = 0
    for seed in range(40):
        objective = fd_only(gn.seeded_instance(seed, "rayleigh", 10))
        p_star = gn.rayleigh_top_eigenvector(objective)
        p0 = sphere10.exp_map(gn.random_tangent(p_star, gn.rng_for(seed)).scaled(0.05))
        trace = gn.newton_run(objective, gn.NewtonConfig(retraction=EXP), p0)
        grads, steps = trace.grad_norms, trace.step_norms
        for i in range(2, len(grads)):
            if steps[i - 1] <= _STALL_STEP and grads[i] > grads[i - 1] and grads[i - 1] < min(grads[: i - 1]):
                assert len(grads) > i + 1  # the run went on after the rise
                converged_after_bounce += trace.status == gn.NewtonStatus.CONVERGED
                break
    assert converged_after_bounce >= 1


@pytest.mark.parametrize("n", [3, 10])
@pytest.mark.parametrize("spec", [EXP, PROJ, PERT], ids=lambda s: s.family)
def test_no_stall_away_from_a_critical_point(n, spec):
    # From uniformly random starts pure Newton may reach any eigenvector;
    # a run that ends STALLED must end at one of them.
    sphere = gn.Sphere(n)
    for seed in range(10):
        objective = gn.seeded_instance(seed, "rayleigh", n)
        p0 = gn.random_point(sphere, gn.rng_for(seed))
        trace = gn.newton_run(objective, gn.NewtonConfig(retraction=spec), p0)
        if trace.status != gn.NewtonStatus.STALLED:
            continue
        _, vecs = np.linalg.eigh(objective.matrix)
        dist = min(
            sphere.geodesic_distance(trace.final_point, sphere.point(sign * v))
            for v in vecs.T for sign in (1.0, -1.0)
        )
        assert dist <= 1e-8


def test_one_step_contraction_cubic_under_exponential(sphere3):
    # With analytic derivatives (no finite differences anywhere) the one-step
    # error of the exponential-retraction Newton update scales as d0^3 for the
    # quadratic-form objective: e1/d0^3 stays constant while e1/d0^2 shrinks
    # linearly.  This pins down why the "rate ~= 2" bands cannot describe
    # order-2 retractions on this objective family; the guaranteed quadratic
    # bound holds with an order to spare.
    objective = gn.seeded_instance(42, "rayleigh", 3)
    p_star = gn.rayleigh_top_eigenvector(objective)

    def analytic_step(p):
        g = row_dots(p.frame, objective.analytic_gradient(p).coords)
        h = riemannian_hessian(objective, p)
        return sphere3.exp_map(in_frame(p, np.linalg.solve(h, -g)))

    rng = gn.rng_for(123)
    cubic_constants = []
    for d0 in (1e-1, 1e-2, 1e-3, 1e-4):
        p = sphere3.exp_map(gn.random_tangent(p_star, rng).scaled(d0))
        e1 = sphere3.geodesic_distance(analytic_step(p), p_star)
        cubic_constants.append(e1 / d0**3)
    assert max(cubic_constants) / min(cubic_constants) <= 1.3
    # and the order-1 retraction keeps a genuinely quadratic step
    p = sphere3.exp_map(gn.random_tangent(p_star, rng).scaled(1e-3))
    e1 = sphere3.geodesic_distance(reference_step(objective, PERT, p), p_star)
    assert 0.1 <= e1 / 1e-6 <= 100.0


# ---- complex-step gradient read


@pytest.mark.parametrize("spec", [EXP, PROJ, PERT], ids=lambda s: s.family)
def test_iterates_invariant_under_power_of_two_scaling(spec):
    # The complex read, the FD Hessian and the solve all scale exactly with J
    # by 1024, so the iterates must not move.  tol is tiny so that the
    # absolute gradient tolerance, which does depend on J's scale, stops no run.
    sphere10 = gn.Sphere(10)
    config = gn.NewtonConfig(retraction=spec, max_iter=8, tol=1e-300)
    for seed in range(16):
        objective = gn.seeded_instance(seed, "rayleigh", 10)
        p_star = gn.rayleigh_top_eigenvector(objective)
        p0 = sphere10.exp_map(gn.random_tangent(p_star, gn.rng_for(seed)).scaled(0.05))
        trace = gn.newton_run(objective, config, p0)
        scaled = gn.newton_run(gn.Rayleigh(1024.0 * objective.matrix), config, p0)
        assert scaled.status == trace.status
        assert len(scaled.points) == len(trace.points) >= 4
        for a, b in zip(trace.points, scaled.points):
            assert np.array_equal(a.coords, b.coords)
        assert scaled.grad_norms == tuple(1024.0 * g for g in trace.grad_norms)


SMALL_SCALE_DEFECT = pytest.mark.xfail(
    strict=True, reason="the absolute tol ends the 1e-6 run converged 1.19e-7 from the optimum")


@pytest.mark.parametrize("scale", [pytest.param(1e-6, marks=SMALL_SCALE_DEFECT), 1e-3, 1.0])
def test_converged_run_ends_at_the_optimum_at_every_scale(sphere3, scale):
    # At scales 1e-3 and 1 the run ends converged 2.9e-18 from e3.  At 1e-6
    # the gradient norm, which scales with J, passes the absolute tol 1e-12
    # after 2 iterations, 1.186e-7 from e3.  A scale-aware stop rule must
    # flip this xfail: it is strict, so a run that ends truthfully fails it.
    objective = gn.Rayleigh(scale * np.diag([3.0, 2.0, 1.0]))
    p0 = sphere3.point(np.array([0.1, 0.1, 1.0]) / np.linalg.norm([0.1, 0.1, 1.0]))
    trace = gn.newton_run(objective, gn.NewtonConfig(retraction=EXP), p0)
    distance = sphere3.geodesic_distance(trace.final_point, sphere3.point([0.0, 0.0, 1.0]))
    assert trace.status != gn.NewtonStatus.CONVERGED or distance <= 1e-12


class AbsRayleigh:
    """|x^T A x|, declared holomorphic though np.abs is not: the complex probe
    loses its imaginary part, so the complex-step gradient reads zero."""

    holomorphic = True

    def __init__(self, matrix):
        self.inner = gn.Rayleigh(matrix)

    def value(self, p):
        return abs(self.inner.value(p))

    def values(self, p, points):
        return np.abs(self.inner.values(p, points))


@pytest.mark.filterwarnings("error")
def test_wrongly_declared_holomorphic_objective_is_refused(sphere3, fd_only):
    p0 = sphere3.point(np.array([0.1, 0.1, 1.0]) / np.linalg.norm([0.1, 0.1, 1.0]))
    config = gn.NewtonConfig(retraction=EXP)
    # past about 1.3e154 the squares in the guard's norms overflow; the guard
    # must still see the gap, not compare inf with inf
    for scale in (1.0, 1e155, 1e300):
        with pytest.raises(gn.ContractError, match="AbsRayleigh declares holomorphic"):
            gn.newton_run(AbsRayleigh(scale * np.diag([3.0, 2.0, 1.0])), config, p0)
    # read by finite differences, the same objective converges
    trace = gn.newton_run(fd_only(AbsRayleigh(np.diag([3.0, 2.0, 1.0]))), config, p0)
    assert sphere3.geodesic_distance(trace.final_point, sphere3.point([0, 0, 1])) <= 1e-9


def test_complex_read_leaves_fd_reads_to_the_first_iterate(sphere3, rayleigh_321, monkeypatch):
    # one FD read per run (the guard's gradient_fd at p0, at the default
    # step), so no wider-step re-read and, below the crossover, no FD Hessian
    reads = []
    for name in ("gradient_fd", "hessian_fd"):
        real = getattr(gn.newton, name)
        monkeypatch.setattr(gn.newton, name, lambda *a, _n=name, _f=real, **k: reads.append((_n, a, k)) or _f(*a, **k))
    p0 = sphere3.point(np.array([0.1, 0.1, 1.0]) / np.linalg.norm([0.1, 0.1, 1.0]))
    trace = gn.newton_run(rayleigh_321, gn.NewtonConfig(retraction=EXP), p0)
    assert trace.status == gn.NewtonStatus.CONVERGED and trace.iterations >= 2
    assert [(name, k) for name, _, k in reads] == [("gradient_fd", {})]
    assert reads[0][1][2] is p0


def reference_complex_run(objective, config, p0):
    """newton_run for a holomorphic objective from the public pieces: the
    guard (gradient_cs against gradient_fd at p0), then at every iterate the
    complex read, the stop tests, the Hessian, the solve and the retraction.
    Up to the crossover the gradient and Hessian are derivatives_cs's, past
    it gradient_cs's and hessian_fd's."""
    spec = config.retraction
    fd = gn.gradient_fd(objective, spec, p0)
    gap = np.linalg.norm(gn.gradient_cs(objective, spec, p0).coords - fd.coords)
    assert gap <= 1e-6 * (fd.norm() + abs(objective.value(p0)))
    one_batch = p0.manifold.intrinsic_dim <= gn.newton._COMPLEX_HESSIAN_MAX_DIM
    points, grad_norms, step_norms = [p0], [], []
    while True:
        p = points[-1]
        grad, hess = derivatives_cs(objective, spec, p) if one_batch else (gn.gradient_cs(objective, spec, p), None)
        grad_norms.append(grad.norm())
        if grad_norms[-1] <= config.tol:
            status = gn.NewtonStatus.CONVERGED
        elif len(step_norms) >= 2 and step_norms[-1] <= _STALL_STEP and min(grad_norms[-2:]) >= min(grad_norms[:-2]):
            status = gn.NewtonStatus.STALLED
        elif len(step_norms) == config.max_iter:
            status = gn.NewtonStatus.MAX_ITER
        else:
            if hess is None:
                hess = gn.hessian_fd(objective, spec, p)
            step = gn.solve_tangent_system(hess, grad, cond_cap=config.cond_cap)
            points.append(gn.retract(spec, step))
            step_norms.append(step.norm())
            continue
        return points, grad_norms, step_norms, status


def _complex_read_cases():
    for n in (3, 10):
        for spec in (EXP, PROJ, PERT):
            yield pytest.param(gn.Sphere(n), spec, id=f"sphere{n}-{spec.family}")
    for spec in (EXP, CAY):
        yield pytest.param(gn.Rotations3(), spec, id=f"so3-{spec.family}")


def _seeded_start(manifold, seed, dist=0.05):
    if isinstance(manifold, gn.Rotations3):
        objective = gn.seeded_instance(seed, "procrustes")
        p_star = objective.polar_factor()
    else:
        objective = gn.seeded_instance(seed, "rayleigh", manifold.ambient_dim)
        p_star = gn.rayleigh_top_eigenvector(objective)
    return objective, manifold.exp_map(gn.random_tangent(p_star, gn.rng_for(seed)).scaled(dist))


def _first_operator_and_trace(objective, config, p0, monkeypatch):
    operators = []
    solve = gn.newton.solve_tangent_system
    monkeypatch.setattr(gn.newton, "solve_tangent_system", lambda h, *a, **k: operators.append(h) or solve(h, *a, **k))
    trace = gn.newton_run(objective, config, p0)
    monkeypatch.undo()
    assert operators[0].base is p0
    return operators[0], trace


def _same_trace(trace, reference):
    points, grad_norms, step_norms, status = reference
    assert [p.coords.tobytes() for p in trace.points] == [p.coords.tobytes() for p in points]
    assert (trace.grad_norms, trace.step_norms, trace.status) == (tuple(grad_norms), tuple(step_norms), status)


@pytest.mark.parametrize("manifold,spec", _complex_read_cases())
def test_first_step_uses_the_guard_batch_hessian(manifold, spec, monkeypatch):
    # Below the crossover the Hessian of the first step is derivatives_cs's
    # at p0 byte for byte, read with the gradient in one batch (the guard's
    # FD read is a gradient_fd of its own), and the whole trace is that of
    # the reference run built from the public pieces.
    assert manifold.intrinsic_dim <= gn.newton._COMPLEX_HESSIAN_MAX_DIM
    for seed in (1, 2):
        objective, p0 = _seeded_start(manifold, seed)
        config = gn.NewtonConfig(retraction=spec)
        first, trace = _first_operator_and_trace(objective, config, p0, monkeypatch)
        assert first.matrix.tobytes() == derivatives_cs(objective, spec, p0)[1].matrix.tobytes()
        _same_trace(trace, reference_complex_run(objective, config, p0))
        assert trace.iterations >= 2


@pytest.mark.parametrize("spec", (EXP, PROJ, PERT), ids=lambda spec: spec.family)
def test_run_above_the_crossover_keeps_the_fd_hessian(spec, monkeypatch):
    # On sphere:20 (d = 19) every Hessian is hessian_fd's, the first too (the
    # one derivatives_fd batch reads the same bytes), and the trace is the
    # reference run's from gradient_cs and hessian_fd, byte for byte.
    manifold = gn.Sphere(20)
    assert manifold.intrinsic_dim > gn.newton._COMPLEX_HESSIAN_MAX_DIM
    for seed in (1, 2):
        objective, p0 = _seeded_start(manifold, seed)
        config = gn.NewtonConfig(retraction=spec)
        first, trace = _first_operator_and_trace(objective, config, p0, monkeypatch)
        fds, hessians, _ = calculus.derivatives_fd(objective, spec, [p0])
        assert first.matrix.tobytes() == hessians[0].tobytes() == gn.hessian_fd(objective, spec, p0).matrix.tobytes()
        assert fds[0].tobytes() == gn.gradient_fd(objective, spec, p0).coords.tobytes()
        _same_trace(trace, reference_complex_run(objective, config, p0))
        assert trace.iterations >= 2


class CountingReads:
    """A holomorphic objective that counts its value and values calls, and
    records the row count of each values batch."""

    holomorphic = True

    def __init__(self, inner):
        self.inner = inner
        self.calls = {"value": 0, "values": 0}
        self.rows = []

    def value(self, p):
        self.calls["value"] += 1
        return self.inner.value(p)

    def values(self, p, points):
        self.calls["values"] += 1
        self.rows.append(len(points))
        return self.inner.values(p, points)


@pytest.mark.parametrize("n", (3, 10))
def test_converged_run_reads_one_batch_per_gradient_and_hessian(n):
    # Below the crossover K iterations read K + 1 complex batches, each a
    # gradient and a Hessian but for the predicted stop's gradient alone,
    # and one guard FD gradient at p0: K + 2 values calls, and one value
    # call (the guard's scale |J(p0)|).
    inner = gn.seeded_instance(4, "rayleigh", n)
    p_star = gn.rayleigh_top_eigenvector(inner)
    p0 = gn.Sphere(n).exp_map(gn.random_tangent(p_star, gn.rng_for(4)).scaled(0.05))
    objective = CountingReads(inner)
    trace = gn.newton_run(objective, gn.NewtonConfig(retraction=EXP), p0)
    assert trace.status == gn.NewtonStatus.CONVERGED and trace.iterations >= 2
    assert objective.calls == {"value": 1, "values": trace.iterations + 2}


def test_run_above_the_crossover_reads_one_guard_shape():
    # On sphere:20 the first iterate reads as the later ones do, gradient_cs's
    # d rows and hessian_fd's 2d^2 + 1, with the guard's gradient_fd (2d
    # rows) between them, as below the crossover; the predicted stop reads
    # gradient_cs alone: 2K + 2 values calls in K iterations.
    n = 20
    d = n - 1
    inner, p0 = _seeded_start(gn.Sphere(n), 1)
    objective = CountingReads(inner)
    trace = gn.newton_run(objective, gn.NewtonConfig(retraction=EXP), p0)
    assert trace.status == gn.NewtonStatus.CONVERGED and trace.iterations >= 2
    assert objective.rows == [d, 2 * d] + [2 * d * d + 1, d] * trace.iterations
    assert objective.calls == {"value": 1, "values": 2 * trace.iterations + 2}


def _tangency_check_cases():
    for n in (3, 10, 20):
        for spec in (EXP, PROJ, PERT):
            yield pytest.param(gn.Sphere(n), spec, id=f"sphere{n}-{spec.family}")
    for spec in (EXP, CAY):
        yield pytest.param(gn.Rotations3(), spec, id=f"so3-{spec.family}")


@pytest.mark.parametrize("manifold,spec", _tangency_check_cases())
def test_converged_run_makes_no_tangency_check(manifold, spec, tangency_checks):
    # every probe row of a run is built from a checked point's frame, and
    # every step from the solve in that frame: none is checked tangent again
    objective, p0 = _seeded_start(manifold, 1)
    tangency_checks.clear()
    trace = gn.newton_run(objective, gn.NewtonConfig(retraction=spec), p0)
    assert trace.status == gn.NewtonStatus.CONVERGED
    assert tangency_checks == []


@pytest.mark.filterwarnings("error")
def test_gradient_norm_past_the_float_range_is_recorded_finite(sphere3):
    # The squares of a gradient past about 1.3e154 overflow: the trace records
    # its norm taken at scale 2^-600, 2^600 |2^-600 g|, finite, and every
    # other norm as np.linalg.norm computes it.  Both runs read by complex
    # step, whose gradient is gradient_cs's bit for bit.
    p0 = sphere3.point(np.array([0.1, 0.1, 1.0]) / np.linalg.norm([0.1, 0.1, 1.0]))
    for scale, status in ((1e155, gn.NewtonStatus.CONVERGED), (1e300, gn.NewtonStatus.STALLED)):
        objective = gn.Rayleigh(scale * np.diag([3.0, 2.0, 1.0]))
        trace = gn.newton_run(objective, gn.NewtonConfig(retraction=EXP), p0)
        assert trace.status == status
        expected = []
        for p in trace.points:
            g = gn.gradient_cs(objective, EXP, p).coords
            with np.errstate(over="ignore"):
                norm = np.linalg.norm(g)
            expected.append(float(norm if np.isfinite(norm) else 2.0 ** 600 * np.linalg.norm(2.0 ** -600 * g)))
        assert np.isfinite(trace.grad_norms).all()
        assert trace.grad_norms == tuple(expected)
        assert trace.grad_norms[0] > 1e154


class HolomorphicNaNFromBatch(NaNFromBatch):
    holomorphic = True


def test_first_fd_batch_error_ends_run_with_nan_first_norm(sphere3, rayleigh_321):
    # batch 1 is the complex read at p0, with its Hessian, and batch 2 the
    # guard's FD gradient: its failure ends the run at p0 with the first
    # gradient norm NaN, as a failed gradient read records it.
    p0 = sphere3.point(np.array([0.1, 0.1, 1.0]) / np.linalg.norm([0.1, 0.1, 1.0]))
    config = gn.NewtonConfig(retraction=EXP)
    full = gn.newton_run(rayleigh_321, config, p0)
    trace = gn.newton_run(HolomorphicNaNFromBatch(rayleigh_321, 2), config, p0)
    assert trace.status == gn.NewtonStatus.EVALUATION_ERROR
    assert trace.iterations == 0 and trace.points[0] is p0
    assert len(trace.grad_norms) == 1 and np.isnan(trace.grad_norms[0])
    # batch 3 is the complex read at p1: the step is kept, its read is NaN
    trace = gn.newton_run(HolomorphicNaNFromBatch(rayleigh_321, 3), config, p0)
    assert trace.status == gn.NewtonStatus.EVALUATION_ERROR
    assert trace.iterations == 1
    assert np.array_equal(trace.points[1].coords, full.points[1].coords)
    assert trace.grad_norms[0] == full.grad_norms[0] and np.isnan(trace.grad_norms[1])


@pytest.mark.parametrize("n", (3, 10))
def test_predicted_stop_reads_the_gradient_alone(n):
    # Below the crossover: the complex batch at p0 (d^2 + 2d rows), the
    # guard's FD gradient (2d), a complex batch at each later iterate, and
    # at the iterate the error law predicts to stop the run, gradient_cs's
    # d rows alone.  The trace is the reference run's, which reads the full
    # batch there too.
    d = n - 1
    for seed in range(3):
        inner, p0 = _seeded_start(gn.Sphere(n), seed)
        objective = CountingReads(inner)
        config = gn.NewtonConfig(retraction=EXP)
        trace = gn.newton_run(objective, config, p0)
        assert trace.status == gn.NewtonStatus.CONVERGED and trace.iterations >= 2
        assert objective.rows == [d * d + 2 * d, 2 * d] + [d * d + 2 * d] * (trace.iterations - 1) + [d]
        _same_trace(trace, reference_complex_run(inner, config, p0))


@pytest.mark.parametrize("n", (3, 10))
def test_missed_stop_prediction_costs_one_gradient_batch(n, monkeypatch):
    # With the margin forced up, every iterate after the first two steps is
    # predicted to stop the run: each one that does not meet tol reads
    # gradient_cs's d rows and then the full complex batch, one d-row batch
    # more than before, and no step, norm or status moves.
    monkeypatch.setattr(gn.newton, "_STOP_MARGIN", 1e300)
    d, full = n - 1, (n - 1) ** 2 + 2 * (n - 1)
    for seed in range(3):
        inner, p0 = _seeded_start(gn.Sphere(n), seed, 0.3)
        objective = CountingReads(inner)
        config = gn.NewtonConfig(retraction=EXP)
        trace = gn.newton_run(objective, config, p0)
        misses = trace.iterations - 2
        assert trace.status == gn.NewtonStatus.CONVERGED and misses >= 1
        assert objective.rows == [full, 2 * d, full] + [d, full] * misses + [d]
        _same_trace(trace, reference_complex_run(inner, config, p0))


class NaNAtHessianProbesOf:
    """Delegates to ``inner``, but at ``base`` every batch longer than the
    gradient's d rows has its first Hessian probe (row d) NaN."""

    holomorphic = True

    def __init__(self, inner, base):
        self.inner, self.base = inner, base

    def value(self, p):
        return self.inner.value(p)

    def values(self, p, points):
        out = np.array(self.inner.values(p, points))
        dim = p.manifold.intrinsic_dim
        if len(points) > dim and np.array_equal(p.coords, self.base.coords):
            out[dim] = np.nan
        return out


@pytest.mark.parametrize("n", (3, 10, 20))
def test_nan_hessian_probe_at_the_stopping_iterate_ends_converged(n, monkeypatch):
    # No step uses the stopping iterate's Hessian, so a NaN there is never
    # read: below the crossover the predicted stop reads gradient_cs alone,
    # above it the complex read never had the Hessian.  Read with the
    # gradient when no stop is predicted, the same NaN ends the run
    # evaluation_error with the last gradient norm NaN.
    inner, p0 = _seeded_start(gn.Sphere(n), 1)
    config = gn.NewtonConfig(retraction=EXP)
    full = gn.newton_run(inner, config, p0)
    assert full.status == gn.NewtonStatus.CONVERGED
    trace = gn.newton_run(NaNAtHessianProbesOf(inner, full.final_point), config, p0)
    _same_trace(trace, (full.points, full.grad_norms, full.step_norms, full.status))
    if n <= gn.newton._COMPLEX_HESSIAN_MAX_DIM:
        monkeypatch.setattr(gn.newton, "_STOP_MARGIN", 0.0)
        trace = gn.newton_run(NaNAtHessianProbesOf(inner, full.final_point), config, p0)
        assert trace.status == gn.NewtonStatus.EVALUATION_ERROR
        assert trace.grad_norms[:-1] == full.grad_norms[:-1] and np.isnan(trace.grad_norms[-1])


@pytest.mark.filterwarnings("error")
def test_stop_prediction_past_the_float_range_raises_nothing(sphere3, monkeypatch):
    # Gradient norms up to about 1e300, and a forced margin whose product
    # with tol passes the float range: the prediction, multiplied out, raises
    # nothing, and each run ends as it does when no stop is ever predicted
    # (margin 0), iterate for iterate.
    p0 = sphere3.point(np.array([0.1, 0.1, 1.0]) / np.linalg.norm([0.1, 0.1, 1.0]))
    for scale in (1e155, 1e300):
        objective = gn.Rayleigh(scale * np.diag([3.0, 2.0, 1.0]))
        for tol in (1e-12, scale * 1e-12):
            config = gn.NewtonConfig(retraction=EXP, tol=tol)
            traces = []
            for margin in (0.0, 1e-2, 1e300):
                monkeypatch.setattr(gn.newton, "_STOP_MARGIN", margin)
                traces.append(gn.newton_run(objective, config, p0))
            for trace in traces[1:]:
                _same_trace(trace, (traces[0].points, traces[0].grad_norms, traces[0].step_norms, traces[0].status))
