"""The batched retraction kernels and finite-difference stencils must
reproduce scalar arithmetic exactly.

Tolerance-based accuracy tests do not notice a last-ulp change in a probe
value, but the noise-floor-limited sweeps (lemma1 on even pullbacks) move
visibly when it happens.  Every comparison here is therefore exact
(``np.array_equal`` or ``==``, and ``tobytes()`` where a signed zero must
match too) against references kept in this file: each
retraction's, each inverse retraction's (the log for exp), each objective's
and each geodesic distance's closed form on one vector, a per-probe loop
that retracts one tangent vector and evaluates the objective by those closed
forms, and the order and distance-deviation sweeps run one row at a time, as
are the residual and Taylor sweeps.
"""

import numpy as np
import pytest

import geonewton as gn
from geonewton import calculus, rates
from geonewton.calculus import GRADIENT_STEP_FACTOR, HESSIAN_STEP_FACTOR, REFINED_GRADIENT_STEP_FACTOR
from geonewton.manifolds import PointRows, frame_sums, row_dots, unchecked

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


def _rodrigues(body):
    """expm of one skew-symmetric 3x3 matrix, Rodrigues form."""
    theta = float(np.linalg.norm(gn.vee(body)))
    a = np.sinc(theta / np.pi)
    b = 0.5 * np.sinc(theta / (2.0 * np.pi)) ** 2
    return np.eye(3) + a * body + b * (body @ body)


def _closed_form(family, p, v):
    """R_p(v) for one tangent vector v, in scalar numpy arithmetic."""
    if family == "projection":
        out = p.coords + v
        return out / np.linalg.norm(out)
    if family == "perturbed":
        out = p.coords + v + float(np.dot(v, v)) * p.frame[0]
        return out / np.linalg.norm(out)
    if isinstance(p.manifold, gn.Sphere):  # exp: great circle
        n = float(np.linalg.norm(v))
        out = np.cos(n) * p.coords + np.sinc(n / np.pi) * v
        return out / np.linalg.norm(out)
    q = p.matrix
    body = q.T @ v.reshape(3, 3)
    body = 0.5 * (body - body.T)
    if family == "cayley":
        eye = np.eye(3)
        return (q @ np.linalg.solve(eye - 0.5 * body, eye + 0.5 * body)).reshape(9)
    return (q @ _rodrigues(body)).reshape(9)


def _closed_value(objective, x):
    """J at one point x (ambient coordinates), in scalar numpy arithmetic."""
    a = objective.matrix
    if objective.kind == "rayleigh":
        return float(x @ a @ x)
    if objective.kind == "procrustes":
        return -float(np.sum(a * x.reshape(3, 3)))
    if objective.kind == "tilted":
        return float(x @ a @ x + 2.0 * (objective.tilt @ x))
    q = x.reshape(3, 3)  # brockett
    return float(np.diag(q.T @ a @ q) @ objective.weights)


def _scalar_probe(objective, spec, p, coords):
    return _closed_value(objective, _closed_form(spec.family, p, coords))


def _scalar_gradient(objective, spec, p, frame, h):
    ambient = np.zeros(p.manifold.ambient_dim)
    for vec in frame:
        plus = _scalar_probe(objective, spec, p, h * vec)
        minus = _scalar_probe(objective, spec, p, -h * vec)
        ambient += ((plus - minus) / (2.0 * h)) * vec
    return ambient


def _scalar_hessian(objective, spec, p, frame):
    h = HESSIAN_STEP_FACTOR
    dim = len(frame)
    out = np.empty((dim, dim))
    for i in range(dim):
        ei = frame[i]
        for j in range(i, dim):
            ej = frame[j]
            pp = _scalar_probe(objective, spec, p, h * ei + h * ej)
            pm = _scalar_probe(objective, spec, p, h * ei - h * ej)
            mp = _scalar_probe(objective, spec, p, -h * ei + h * ej)
            mm = _scalar_probe(objective, spec, p, -h * ei - h * ej)
            out[i, j] = out[j, i] = (pp - pm - mp + mm) / (4.0 * h * h)
    return 0.5 * (out + out.T)


def _four_point_rows(frame, h):
    """The Hessian stencil written out row by row: h e_i + h e_j, h e_i - h e_j,
    -h e_i + h e_j and -h e_i - h e_j over the pairs i < j (each form in
    turn), then the doubled diagonal h e_i + h e_i and -h e_i - h e_i."""
    pairs = [(i, j) for i in range(len(frame)) for j in range(i + 1, len(frame))]
    rows = [h * frame[i] + h * frame[j] for i, j in pairs]
    rows += [h * frame[i] - h * frame[j] for i, j in pairs]
    rows += [-h * frame[i] + h * frame[j] for i, j in pairs]
    rows += [-h * frame[i] - h * frame[j] for i, j in pairs]
    rows += [h * e + h * e for e in frame]
    rows += [-h * e - h * e for e in frame]
    return np.array(rows).reshape(-1, frame.shape[1])


def _stencil_of_hessian_fd(monkeypatch, objective, spec, p):
    """The stencil rows hessian_fd hands to _retract_rows, before the centre
    R_p(0): a last row of +0.0 entries, checked here byte for byte."""
    seen = []
    retract_rows = calculus._retract_rows

    def recording(spec, p, vectors):
        seen.append(np.array(vectors))
        return retract_rows(spec, p, vectors)

    monkeypatch.setattr(calculus, "_retract_rows", recording)
    gn.hessian_fd(objective, spec, p)
    monkeypatch.undo()
    (stencil,) = seen
    assert stencil[-1].tobytes() == np.zeros(stencil.shape[1]).tobytes()
    return stencil[:-1]


@pytest.mark.parametrize("n", SPHERE_SIZES)
def test_hessian_stencil_equals_written_out_rows_byte_for_byte(monkeypatch, n):
    # np.array_equal treats -0.0 as 0.0; tobytes() does not.  The closed-form
    # sphere frame is exactly zero below its diagonal.
    manifold = gn.Sphere(n)
    objective = _sphere_objectives(n)[0]
    for seed in (7, 8):
        p = _base_point(manifold, seed)
        assert (p.frame == 0.0).any() or n == 2
        for family in SPHERE_FAMILIES:
            stencil = _stencil_of_hessian_fd(monkeypatch, objective, gn.RetractionSpec(family), p)
            assert stencil.tobytes() == _four_point_rows(p.frame, HESSIAN_STEP_FACTOR).tobytes()
    p = gn.Sphere(5).point([1.0, 0.0, 0.0, 0.0, 0.0])  # its frame holds -0.0 entries
    assert np.signbit(p.frame[p.frame == 0.0]).any()
    stencil = _stencil_of_hessian_fd(monkeypatch, gn.Rayleigh(np.diag([5.0, 4.0, 3.0, 2.0, 1.0])),
                                     gn.RetractionSpec("exp"), p)
    assert stencil.tobytes() == _four_point_rows(p.frame, HESSIAN_STEP_FACTOR).tobytes()


@pytest.mark.parametrize("manifold", (gn.Sphere(3), gn.Sphere(10), gn.Rotations3()), ids=repr)
def test_hessian_centre_is_the_last_row_of_its_one_retract_many(monkeypatch, manifold):
    # R_p(0) is retracted with the stencil in its one batch, not by a retract
    # call of its own, and J is read there at the last row of the stencil's
    # one values() call (no value() call), at the point retract would give.
    if isinstance(manifold, gn.Rotations3):
        objective, families = _so3_objectives()[0], SO3_FAMILIES
    else:
        objective, families = _sphere_objectives(manifold.ambient_dim)[0], SPHERE_FAMILIES
    p = _base_point(manifold, 9)
    value, values, retract_rows = type(objective).value, type(objective).values, calculus._retract_rows
    for family in families:
        spec = gn.RetractionSpec(family)
        batches, singles, valued, read = [], [], [], []
        monkeypatch.setattr(calculus, "_retract_rows", lambda *args: batches.append(args) or retract_rows(*args))
        monkeypatch.setattr(calculus, "retract", lambda *args: singles.append(args) or gn.retract(*args))
        monkeypatch.setattr(type(objective), "value", lambda self, q: valued.append(q) or value(self, q))
        monkeypatch.setattr(type(objective), "values", lambda self, q, rows: read.append(rows) or values(self, q, rows))
        gn.hessian_fd(objective, spec, p)
        monkeypatch.undo()
        assert (len(batches), len(singles), len(valued), len(read)) == (1, 0, 0, 1)
        assert read[0][-1].tobytes() == gn.retract(spec, gn.TangentVector(p, np.zeros(manifold.ambient_dim))).coords.tobytes()


def test_stencil_plan_sums_match_written_out_rows_with_extreme_entries():
    # The plan's exactness is a property of IEEE addition, not of orthonormal
    # frames: check it on arrays with signed zeros and entries near overflow.
    # The last probe is the centre, row 2d (+0.0) twice.
    rng = gn.rng_for(90)
    for dim in (1, 2, 3, 6):
        first, second = calculus._stencil_plan(dim)[:2]
        for _ in range(100):
            frame = rng.choice([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 3.7e-310], size=(dim, 4))
            frame = frame * rng.uniform(0.5, 2.0, size=frame.shape)
            signed = np.concatenate([HESSIAN_STEP_FACTOR * np.concatenate([frame, -frame]), np.zeros((1, 4))])
            expected = np.concatenate([_four_point_rows(frame, HESSIAN_STEP_FACTOR), np.zeros((1, 4))])
            assert (signed[first] + signed[second]).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim", (1, 2, 9, 19))
def test_stencil_plan_is_cached_and_read_only(dim):
    plan = calculus._stencil_plan(dim)
    assert calculus._stencil_plan(dim) is plan
    first, second, *gathers = plan
    assert len(first) == len(second) == 2 * dim * dim + 1
    assert len(gathers) == 4 and all(index.shape == (dim, dim) for index in gathers)
    for index in plan:
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[...] = 0


def test_stencil_plan_gathers_pick_each_entrys_four_probes():
    # H_ij and H_ji gather the same four probes: pp, pm, mp, mm of the pair
    # (first form i, second j), and for i = j the doubled diagonal rows around
    # the centre probe twice.
    for dim in (1, 2, 3, 6):
        first, second, *gathers = calculus._stencil_plan(dim)
        signs = {(0, 0): "pp", (0, 1): "pm", (1, 0): "mp", (1, 1): "mm"}
        for i in range(dim):
            for j in range(dim):
                picked = [(first[g[i, j]], second[g[i, j]]) for g in gathers]
                assert picked == [(first[g[j, i]], second[g[j, i]]) for g in gathers]
                if i == j:
                    assert picked == [(i, i), (2 * dim, 2 * dim), (2 * dim, 2 * dim), (i + dim, i + dim)]
                    continue
                a, b = min(i, j), max(i, j)
                for name, (r, c) in zip(("pp", "pm", "mp", "mm"), picked):
                    assert (r % dim, c % dim) == (a, b)
                    assert signs[(r // dim, c // dim)] == name


@pytest.mark.parametrize("manifold,family,objective", CASES)
def test_retract_many_and_values_match_single_path(manifold, family, objective):
    spec = gn.RetractionSpec(family)
    for seed in (1, 2):
        p = _base_point(manifold, seed)
        rows = _tangent_rows(p, seed + 100)
        points = gn.retract_many(spec, p, rows)
        assert np.array_equal(points, [_closed_form(family, p, row) for row in rows])
        singles = [gn.retract(spec, gn.TangentVector(p, row)) for row in rows]
        assert np.array_equal(points, np.array([q.coords for q in singles]))
        if family == "exp":
            assert np.array_equal(points, [manifold.exp_map(gn.TangentVector(p, row)).coords for row in rows])
        expected = [_closed_value(objective, q.coords) for q in singles]
        assert np.array_equal(objective.values(p, points), expected)
        assert [objective.value(q) for q in singles] == expected


def test_rotation_exp_is_rodrigues():
    rng = gn.rng_for(11)
    for angle in (0.0, 1e-9, 1e-3, 1.0, 3.0, np.pi - 1e-7):
        axis = rng.standard_normal(3)
        body = gn.hat(angle * axis / np.linalg.norm(axis))
        assert np.array_equal(gn.rotation_exp(body), _rodrigues(body))


@pytest.mark.parametrize("manifold,family,objective", CASES)
def test_fd_derivatives_match_per_probe_loop(manifold, family, objective):
    spec = gn.RetractionSpec(family)
    p = _base_point(manifold, 7)
    for h in (GRADIENT_STEP_FACTOR, REFINED_GRADIENT_STEP_FACTOR):
        grad = gn.gradient_fd(objective, spec, p, step_factor=h)
        assert np.array_equal(grad.coords, _scalar_gradient(objective, spec, p, p.frame, h))
    hess = gn.hessian_fd(objective, spec, p)
    assert np.array_equal(hess.matrix, _scalar_hessian(objective, spec, p, p.frame))


class ValueAdapted:
    """A user objective with only ``value``, given ``values`` by the README's
    two-line adapter."""

    def __init__(self, inner):
        self.inner = inner

    def value(self, p):
        return self.inner.value(p)

    def values(self, p, points):
        return np.array([self.value(p.manifold.point(row)) for row in points])


@pytest.mark.parametrize(  # sphere:2, sphere:3 and so3
    "manifold,family,objective", [case for case in CASES if case.values[0].ambient_dim <= 9]
)
def test_values_adapter_gives_the_batched_bytes(manifold, family, objective):
    spec = gn.RetractionSpec(family)
    adapted = ValueAdapted(objective)
    points = [_base_point(manifold, seed) for seed in (7, 8)]
    p = points[0]
    assert gn.gradient_fd(adapted, spec, p).coords.tobytes() == gn.gradient_fd(objective, spec, p).coords.tobytes()
    assert gn.hessian_fd(adapted, spec, p).matrix.tobytes() == gn.hessian_fd(objective, spec, p).matrix.tobytes()
    again = calculus.derivatives_fd(adapted, spec, points)  # over a PointRows stack
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again, calculus.derivatives_fd(objective, spec, points)))


class Wrapped:
    """Delegates ``values`` to ``inner``."""

    def __init__(self, inner):
        self.inner = inner

    def values(self, p, points):
        return self.inner.values(p, points)


class Recording(Wrapped):
    """Records the type of every base point ``values`` is handed."""

    def __init__(self, inner):
        super().__init__(inner)
        self.bases = []

    def values(self, p, points):
        self.bases.append(type(p))
        return super().values(p, points)

    def analytic_gradient(self, p):
        return self.inner.analytic_gradient(p)


def test_values_is_handed_only_manifold_points():
    # a sphere:3 lemma1 sweep probes its 11 points in one derivatives_fd batch,
    # retracted over a PointRows stack; values still gets one ManifoldPoint
    inner = gn.Rayleigh(np.diag([3.0, 2.0, 1.0]))
    anchor = gn.Sphere(3).point([0.0, 0.0, 1.0])
    sweep = gn.ScaleSweep(directions=[gn.random_tangent(anchor, gn.rng_for(3))])
    objective = Recording(inner)
    rows = gn.critical_residual_rows(objective, gn.RetractionSpec("exp"), sweep)
    assert objective.bases and set(objective.bases) == {gn.ManifoldPoint}
    assert rows == gn.critical_residual_rows(inner, gn.RetractionSpec("exp"), sweep)


class ValueOnly:
    """An objective with ``value`` but no ``values``."""

    def value(self, p):
        return float(p.coords[0])


class HolomorphicWithoutValue(Wrapped):
    holomorphic = True


def test_missing_objective_method_is_contract_error():
    spec = gn.RetractionSpec("exp")
    p = _base_point(gn.Sphere(3), 5)
    with pytest.raises(gn.ContractError, match="ValueOnly objective has no values method"):
        gn.newton_run(ValueOnly(), gn.NewtonConfig(spec), p)
    with pytest.raises(gn.ContractError, match="ValueOnly objective has no values method"):
        gn.taylor_remainder(ValueOnly(), spec, p, gn.random_tangent(p, gn.rng_for(5)))
    objective = HolomorphicWithoutValue(gn.Rayleigh(np.diag([3.0, 2.0, 1.0])))
    with pytest.raises(gn.ContractError, match="HolomorphicWithoutValue objective has no value method"):
        gn.newton_run(objective, gn.NewtonConfig(spec), p)


class NaNAwayBatched:
    """NaN at every probe."""

    def values(self, p, points):
        return np.full(len(points), np.nan)


@pytest.mark.parametrize("cls", [NaNAwayBatched])
def test_non_finite_stencil_value_raises(cls):
    manifold = gn.Sphere(4)
    p = _base_point(manifold, 4)
    objective = cls()
    with pytest.raises(gn.EvaluationError):
        gn.gradient_fd(objective, gn.RetractionSpec("exp"), p)
    with pytest.raises(gn.EvaluationError):
        gn.hessian_fd(objective, gn.RetractionSpec("projection"), p)


def test_non_finite_centre_value_raises():
    class NaNCentre(Wrapped):  # finite at every stencil row but the centre R_p(0), the last
        def values(self, p, points):
            return np.append(self.inner.values(p, points[:-1]), np.nan)

    p = _base_point(gn.Sphere(4), 4)
    with pytest.raises(gn.EvaluationError):
        gn.hessian_fd(NaNCentre(gn.Rayleigh(np.eye(4))), gn.RetractionSpec("exp"), p)


def test_values_of_wrong_length_is_contract_error():
    class Short(Wrapped):
        def values(self, p, points):
            return np.zeros(len(points) - 1)

    p = _base_point(gn.Sphere(3), 5)
    with pytest.raises(gn.ContractError):
        gn.gradient_fd(Short(gn.Rayleigh(np.eye(3))), gn.RetractionSpec("exp"), p)


@pytest.mark.parametrize(
    "manifold,family", [(gn.Sphere(6), f) for f in SPHERE_FAMILIES] + [(gn.Rotations3(), f) for f in SO3_FAMILIES]
)
@pytest.mark.filterwarnings("error")
def test_retract_many_rejects_non_tangent_row(manifold, family):
    spec = gn.RetractionSpec(family)
    p = _base_point(manifold, 6)
    rows = _tangent_rows(p, 60, count=4)
    for fill in (1e-3 * p.coords, np.nan, np.inf):
        bad = rows.copy()
        bad[2] = bad[2] + fill
        with pytest.raises(gn.ContractError):
            gn.retract_many(spec, p, bad)
    with pytest.raises(gn.ContractError):
        gn.retract_many(spec, p, rows[0])
    with pytest.raises(gn.ConfigurationError):
        gn.retract_many(gn.RetractionSpec("projection" if manifold == gn.Rotations3() else "cayley"), p, rows)


@pytest.mark.parametrize(
    "manifold,family", [(gn.Sphere(6), f) for f in SPHERE_FAMILIES] + [(gn.Rotations3(), f) for f in SO3_FAMILIES]
)
def test_retract_many_checks_a_callers_rows_once(manifold, family, tangency_checks):
    # the one tangency check of the public entry point covers every row; the
    # kernel behind it checks nothing again
    p = _base_point(manifold, 6)
    rows = _tangent_rows(p, 61, count=4)
    tangency_checks.clear()
    gn.retract_many(gn.RetractionSpec(family), p, rows)
    assert tangency_checks == [len(rows)]


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
    u = p.frame[0]
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


@pytest.mark.parametrize("manifold,family,objective", CASES)
def test_hessian_fd_is_exactly_symmetric_byte_for_byte(manifold, family, objective):
    # H_ij and H_ji are written from one array, so the assembly needs no
    # 0.5 (H + H^T) pass: the matrix equals its transpose and the per-probe
    # reference, which symmetrizes, byte for byte, signed zeros included.
    spec = gn.RetractionSpec(family)
    for seed in (7, 8):
        p = _base_point(manifold, seed)
        matrix = gn.hessian_fd(objective, spec, p).matrix
        assert matrix.tobytes() == matrix.T.copy().tobytes()
        assert matrix.tobytes() == _scalar_hessian(objective, spec, p, p.frame).tobytes()


SWEEP_PAIRS = [(gn.Sphere(n), f) for n in (3, 10) for f in SPHERE_FAMILIES] + [
    (gn.Rotations3(), f) for f in SO3_FAMILIES
]
SWEEP_IDS = [f"{m!r}-{f}" for m, f in SWEEP_PAIRS]


def _closed_distance(p, q):
    """Geodesic distance of two point rows, in scalar numpy arithmetic."""
    if len(p) == 9:
        rel = p.reshape(3, 3).T @ q.reshape(3, 3)
        skew = 0.5 * (rel - rel.T)
        s = float(np.linalg.norm(gn.vee(skew)))
        c = 0.5 * (float(np.trace(rel)) - 1.0)
        return float(np.sqrt(2.0) * float(np.arctan2(s, c)))
    c = float(np.dot(p, q))
    return float(np.arctan2(np.linalg.norm(q - c * p), c))


def _scalar_order_rows(spec, sweep):
    """retraction_order_rows one row at a time: retract, exp_map, distance."""
    rows = []
    for direction_id, w in enumerate(sweep.directions):
        for s in sweep.scales:
            v = w.scaled(s)
            retracted = gn.retract(spec, v)
            exact = w.base.manifold.exp_map(v)
            rows.append((direction_id, s, _closed_distance(retracted.coords, exact.coords)))
    return rows


def _scalar_deviation_rows(spec, v_dir, w_dir, scales):
    gap = float(np.linalg.norm(v_dir.coords - w_dir.coords))
    rows = []
    for s in scales:
        a, b = gn.retract(spec, v_dir.scaled(s)), gn.retract(spec, w_dir.scaled(s))
        rows.append((0, s, abs(_closed_distance(a.coords, b.coords) - s * gap)))
    return rows


def _same_rows(rows, expected):
    assert [type(x) for row in rows for x in row] == [type(x) for row in expected for x in row]
    assert np.array(rows).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("manifold,family", SWEEP_PAIRS, ids=SWEEP_IDS)
def test_sweep_rows_equal_scalar_reference_byte_for_byte(manifold, family):
    spec = gn.RetractionSpec(family)
    scales = gn.DEFAULT_SCALES + (1e-6, 1e-9)
    for seed in (0, 1, 2):
        rng = gn.rng_for(300 + seed)
        p = gn.random_point(manifold, rng)
        sweep = gn.ScaleSweep(directions=[gn.random_tangent(p, rng) for _ in range(5)], scales=scales)
        _same_rows(gn.retraction_order_rows(spec, sweep), _scalar_order_rows(spec, sweep))
        v_dir, w_dir = gn.random_tangent(p, rng), gn.random_tangent(p, rng)
        _same_rows(gn.distance_deviation_rows(spec, v_dir, w_dir, scales),
                   _scalar_deviation_rows(spec, v_dir, w_dir, scales))
    with pytest.raises(gn.ContractError, match="at least one scale"):
        gn.distance_deviation_rows(spec, v_dir, w_dir, ())


@pytest.mark.parametrize("manifold", [gn.Sphere(2), gn.Sphere(3), gn.Sphere(10), gn.Sphere(50), gn.Rotations3()],
                         ids=repr)
def test_distance_many_rows_equal_geodesic_distance(manifold):
    # identical points, points 1e-17 apart (below the spacing of the
    # coordinates), and points near the cut locus
    rng = gn.rng_for(77)
    ps, qs = [], []
    for t in (0.0, 1e-17, 1e-12, 1e-3, 1.0, np.pi - 1e-3, np.pi - 1e-9):
        for _ in range(4):
            p = gn.random_point(manifold, rng)
            ps.append(p.coords)
            qs.append(manifold.exp_map(gn.random_tangent(p, rng).scaled(t)).coords)
    if isinstance(manifold, gn.Sphere):
        ps.append(ps[0])
        qs.append(-ps[0])  # antipodal
    ps, qs = np.array(ps), np.array(qs)
    many = manifold.distance_many(ps, qs)
    single = [manifold.geodesic_distance(manifold.point(p), manifold.point(q)) for p, q in zip(ps, qs)]
    assert many.tobytes() == np.array(single).tobytes()
    assert many.tobytes() == np.array([_closed_distance(p, q) for p, q in zip(ps, qs)]).tobytes()
    shared = manifold.distance_many(ps, qs[3])  # one q row for every p row
    assert shared.tobytes() == np.array([_closed_distance(p, qs[3]) for p in ps]).tobytes()


def _outcome(call):
    """The message of the ContractError ``call`` raises, or None."""
    try:
        call()
    except gn.ContractError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("manifold,family", SWEEP_PAIRS, ids=SWEEP_IDS)
@pytest.mark.filterwarnings("error")
def test_overlong_scale_raises_as_scalar_path(manifold, family):
    # A scale ladder that starts too long to map raises the ContractError the
    # row-at-a-time path raised, with its message, and no numpy warning.  At
    # 1e8 only the Cayley kernel fails (its point check).
    spec = gn.RetractionSpec(family)
    rng = gn.rng_for(5)
    p = gn.random_point(manifold, rng)
    directions = [gn.random_tangent(p, rng) for _ in range(3)]
    for scales in ((1e200, 1e-2), (1e160, 1.0, 1e-2), (1e8, 1e-2)):
        sweep = gn.ScaleSweep(directions=directions, scales=scales)
        expected = _outcome(lambda: _scalar_order_rows(spec, sweep))
        assert (expected is None) == (scales[0] == 1e8 and family != "cayley")
        assert _outcome(lambda: gn.retraction_order_rows(spec, sweep)) == expected
        v_dir, w_dir = directions[:2]
        expected = _outcome(lambda: _scalar_deviation_rows(spec, v_dir, w_dir, scales))
        assert _outcome(lambda: gn.distance_deviation_rows(spec, v_dir, w_dir, scales)) == expected


def _anchor(objective):
    """A critical point of each shipped objective kind."""
    if objective.kind == "rayleigh":
        return gn.rayleigh_top_eigenvector(objective)
    if objective.kind == "procrustes":
        return objective.polar_factor()
    return objective.minimizer()


def _sweep_objectives(manifold):
    return _so3_objectives() if manifold == gn.Rotations3() else _sphere_objectives(manifold.ambient_dim)


def _old_apply(hess, v):
    """The operator action written out: coordinates, multiply, reassemble."""
    frame = hess.base.frame
    return unchecked(gn.TangentVector, hess.base, frame_sums(hess.matrix @ row_dots(frame, v.coords), frame))


_CUT_LOCUS = np.pi - 1e-6


def _closed_log(p, q):
    """log_p(q) for one point q, in scalar numpy arithmetic: theta/s times the
    rejection on the sphere, Rodrigues with a series below angle 1e-4 on SO(3)."""
    if isinstance(p.manifold, gn.Sphere):
        c = float(np.dot(p.coords, q))
        rej = q - c * p.coords
        s = float(np.linalg.norm(rej))
        theta = float(np.arctan2(s, c))
        if theta >= _CUT_LOCUS:
            raise gn.CutLocusError("points are antipodal or too close to the cut locus")
        return rej if s < 1e-12 else rej * (theta / s)
    rel = p.matrix.T @ q.reshape(3, 3)
    skew = 0.5 * (rel - rel.T)
    theta = float(np.arctan2(np.linalg.norm(gn.vee(skew)), 0.5 * (float(np.trace(rel)) - 1.0)))
    if theta >= _CUT_LOCUS:
        raise gn.CutLocusError("rotation angle too close to pi for a stable logarithm")
    factor = 1.0 + theta**2 / 6.0 + 7.0 * theta**4 / 360.0 if theta < 1e-4 else theta / np.sin(theta)
    return (p.matrix @ (factor * skew)).reshape(9)


def _closed_inverse(family, p, q):
    """v with R_p(v) = q for one point q, in scalar numpy arithmetic."""
    if family == "exp":
        return _closed_log(p, q)
    if family == "cayley":
        rel = p.matrix.T @ q.reshape(3, 3)
        eye = np.eye(3)
        try:
            body = 2.0 * np.linalg.solve(eye + rel, rel - eye)
        except np.linalg.LinAlgError:
            raise gn.InversionFailureError("Cayley inverse undefined (angle at pi)") from None
        return (p.matrix @ (0.5 * (body - body.T))).reshape(9)
    c = float(np.dot(p.coords, q))
    if family == "projection":
        if c <= 1e-12:
            raise gn.InversionFailureError("target lies outside the invertible hemisphere")
        return q / c - p.coords
    outside = gn.InversionFailureError("target lies outside the range of the perturbed retraction")
    if c <= 0.0:
        raise outside
    u = p.frame[0]
    tangent = q - c * p.coords
    along = float(np.dot(tangent, u))
    w = (1.0 / c) * (tangent - along * u)
    cc = (1.0 / c) * along - float(np.dot(w, w))
    if 1.0 + 4.0 * cc < 0.0:
        raise outside
    a = 2.0 * cc / (1.0 + np.sqrt(1.0 + 4.0 * cc))
    return a * u + w


def _closed_inverse_retract(spec, p, q):
    """inverse_retract one point at a time: the closed form, a tangent check
    (a CutLocusError for the sphere's log) and, for the families other than
    exp, a round trip through retract."""
    v = _closed_inverse(spec.family, p, q.coords)
    try:
        v = gn.TangentVector(p, v)
    except gn.ContractError:
        if spec.family != "exp" or not isinstance(p.manifold, gn.Sphere):
            raise
        raise gn.CutLocusError("points are antipodal or too close to the cut locus") from None
    if spec.family != "exp":
        gap = float(np.linalg.norm(gn.retract(spec, v).coords - q.coords))
        if gap > 1e-10:
            raise gn.InversionFailureError(f"inverse retraction round trip off by {gap:.3e}")
    return v


def _scalar_residual_rows(objective, spec, sweep):
    """critical_residual_rows one row at a time: retract, the inverse
    retraction in closed form, a gradient_fd and a hessian_fd at the row's
    point, and apply."""
    anchor = sweep.directions[0].base
    rows = []
    for direction_id, w in enumerate(sweep.directions):
        for s in sweep.scales:
            p = gn.retract(spec, w.scaled(s))
            v = _closed_inverse_retract(spec, p, anchor)
            grad = gn.gradient_fd(objective, spec, p)
            hess = gn.hessian_fd(objective, spec, p)
            applied = calculus.apply_many(hess.matrix, hess.base.frame, v.coords[None])[0]
            assert applied.tobytes() == _old_apply(hess, v).coords.tobytes()
            rows.append((direction_id, v.norm(), float(np.linalg.norm(grad.coords + applied))))
    return rows


def _scalar_taylor_rows(objective, spec, sweep):
    """taylor_remainder_rows one row at a time through taylor_remainder, each
    value checked against the remainder written out."""
    p = sweep.directions[0].base
    grad = gn.gradient_fd(objective, spec, p)
    hess = gn.hessian_fd(objective, spec, p)
    rows = []
    for direction_id, w in enumerate(sweep.directions):
        for s in sweep.scales:
            v = w.scaled(s)
            rem = gn.taylor_remainder(objective, spec, p, v)
            written = abs(objective.value(gn.retract(spec, v)) - objective.value(p) - float(np.dot(v.coords, grad.coords))
                          - 0.5 * float(np.dot(v.coords, _old_apply(hess, v).coords)))
            assert rem == written
            rows.append((direction_id, s, rem))
    return rows


def _rows_or_error(call):
    """The rows ``call`` returns, or the type and message of the library error
    it raises."""
    try:
        return call()
    except gn.GeonewtonError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("manifold,family", SWEEP_PAIRS, ids=SWEEP_IDS)
def test_residual_and_taylor_rows_equal_scalar_reference_byte_for_byte(manifold, family):
    # three directions per sweep, on all four objective kinds
    spec = gn.RetractionSpec(family)
    scales = gn.DEFAULT_SCALES + (1e-6,)
    for seed, objective in enumerate(_sweep_objectives(manifold)):
        rng = gn.rng_for(400 + seed)
        anchor = _anchor(objective)
        sweep = gn.ScaleSweep(directions=[gn.random_tangent(anchor, rng) for _ in range(3)], scales=scales)
        _same_rows(gn.critical_residual_rows(objective, spec, sweep), _scalar_residual_rows(objective, spec, sweep))
        p = gn.random_point(manifold, rng)
        sweep = gn.ScaleSweep(directions=[gn.random_tangent(p, rng) for _ in range(3)], scales=scales)
        _same_rows(gn.taylor_remainder_rows(objective, spec, sweep), _scalar_taylor_rows(objective, spec, sweep))


@pytest.mark.parametrize("manifold,family", SWEEP_PAIRS, ids=SWEEP_IDS)
@pytest.mark.filterwarnings("error")
def test_residual_and_taylor_error_paths_match_scalar_reference(manifold, family):
    # Over-long ladders, the Cayley point check at 1e8, and perturbed ladders
    # starting outside the range of R_p raise what the row-at-a-time path
    # raised, with no numpy warning.
    spec = gn.RetractionSpec(family)
    objective = _sweep_objectives(manifold)[0]
    rng = gn.rng_for(9)
    anchor = _anchor(objective)
    for scales in ((1e200, 1e-2), (1e8, 1e-2), (3.0, 1e-2)):
        sweep = gn.ScaleSweep(directions=[gn.random_tangent(anchor, rng) for _ in range(2)], scales=scales)
        assert (_rows_or_error(lambda: gn.critical_residual_rows(objective, spec, sweep))
                == _rows_or_error(lambda: _scalar_residual_rows(objective, spec, sweep)))
        assert (_rows_or_error(lambda: gn.taylor_remainder_rows(objective, spec, sweep))
                == _rows_or_error(lambda: _scalar_taylor_rows(objective, spec, sweep)))


def _base_rows(manifold, seed, count=6):
    """``count`` points and one tangent row at each, from 0 (the zero vector)
    to 0.5 in length."""
    rng = gn.rng_for(seed)
    points = [gn.random_point(manifold, rng) for _ in range(count)]
    lengths = (0.0,) + tuple(np.geomspace(1e-7, 0.5, count - 1))
    return points, np.array([t * gn.random_tangent(p, rng).coords for p, t in zip(points, lengths)])


@pytest.mark.parametrize("manifold,family", SWEEP_PAIRS, ids=SWEEP_IDS)
def test_point_rows_retract_many_equals_one_base_rows(manifold, family):
    spec = gn.RetractionSpec(family)
    for seed in (1, 2, 3):
        points, rows = _base_rows(manifold, 600 + seed)
        stacked = gn.retract_many(spec, PointRows.of(points, 1), rows)
        single = np.array([gn.retract_many(spec, p, row[None])[0] for p, row in zip(points, rows)])
        assert stacked.tobytes() == single.tobytes()
        if family == "exp":
            assert manifold.exp_many(PointRows.of(points, 1), rows).tobytes() == single.tobytes()
        repeated = PointRows.of(points, 3)  # each point's row three times in turn
        assert repeated.coords.tobytes() == np.repeat([p.coords for p in points], 3, axis=0).tobytes()
        assert gn.retract_many(spec, repeated, np.repeat(rows, 3, axis=0)).tobytes() == np.repeat(single, 3, axis=0).tobytes()


@pytest.mark.parametrize("manifold", [gn.Sphere(4), gn.Rotations3()], ids=repr)
def test_check_tangents_reads_each_row_at_its_own_base(manifold):
    points, rows = _base_rows(manifold, 70, count=3)
    rows = np.array([gn.random_tangent(p, gn.rng_for(71)).coords for p in points])
    bases = PointRows.of(points, 1)
    manifold._check_tangents(bases, rows)
    gn.retract_many(gn.RetractionSpec("exp"), bases, rows)
    # row 0 is tangent at point 1's base, not at its own
    swapped = rows.copy()
    swapped[0] = rows[1]
    manifold._check_tangents(points[1], swapped[:1])
    with pytest.raises(gn.ContractError):
        manifold._check_tangents(bases, swapped)
    with pytest.raises(gn.ContractError):
        gn.retract_many(gn.RetractionSpec("exp"), bases, swapped)
    with pytest.raises(gn.ContractError):  # one row per base
        gn.retract_many(gn.RetractionSpec("exp"), bases, rows[:2])


@pytest.mark.parametrize("manifold,family,objective", CASES)
def test_derivatives_fd_rows_equal_one_point_extraction(monkeypatch, manifold, family, objective):
    # Row i of the batched extraction is gradient_fd and hessian_fd at point
    # i, byte for byte, each Hessian its own transpose.  The three points
    # share one batch up to sphere:10 and get one each from sphere:20.
    # An empty point list is a ContractError.
    spec = gn.RetractionSpec(family)
    points = [_base_point(manifold, seed) for seed in (7, 8, 9)]
    batches = []

    retract_rows = calculus._retract_rows

    def recording(spec, p, vectors):
        batches.append(len(vectors))
        return retract_rows(spec, p, vectors)

    monkeypatch.setattr(calculus, "_retract_rows", recording)
    grads, hessians, frames = calculus.derivatives_fd(objective, spec, points)
    monkeypatch.undo()
    dim = manifold.intrinsic_dim
    per_point = 2 * dim * dim + 2 * dim + 1
    assert batches == ([3 * per_point] if manifold.ambient_dim <= 10 else [per_point] * 3)
    for p, grad, hess, frame in zip(points, grads, hessians, frames):
        assert frame.tobytes() == p.frame.tobytes()
        assert grad.tobytes() == gn.gradient_fd(objective, spec, p).coords.tobytes()
        assert hess.tobytes() == gn.hessian_fd(objective, spec, p).matrix.tobytes()
        assert hess.tobytes() == hess.T.copy().tobytes()
    with pytest.raises(gn.ContractError):
        calculus.derivatives_fd(objective, spec, [])


def _targets(manifold, family, p, seed):
    """Points R_p(v) for v from 0 to 0.5 in length (SO(3) angles below 1e-4
    included), and for exp from 1 to within 1e-3 of the cut locus."""
    spec = gn.RetractionSpec(family)
    rows = _tangent_rows(p, seed)
    if family == "exp":
        rng = gn.rng_for(seed + 1)
        scale = np.sqrt(2.0) if isinstance(manifold, gn.Rotations3) else 1.0  # |v| = sqrt(2) angle on SO(3)
        far = [t * scale * gn.random_tangent(p, rng).coords for t in (1.0, 2.0, 3.0, np.pi - 1e-3)]
        rows = np.concatenate([rows, far])
    return gn.retract_many(spec, p, rows)


@pytest.mark.parametrize("manifold,family", SWEEP_PAIRS, ids=SWEEP_IDS)
@pytest.mark.filterwarnings("error")
def test_inverse_retract_many_rows_equal_closed_forms(manifold, family):
    # At one base, row i is the scalar closed form at target i, and
    # inverse_retract is its one-row call, bit for bit.
    spec = gn.RetractionSpec(family)
    for seed in (1, 2, 3):
        p = _base_point(manifold, 800 + seed)
        qs = _targets(manifold, family, p, 810 + seed)
        many = gn.inverse_retract_many(spec, p, qs)
        assert many.tobytes() == np.array([_closed_inverse(family, p, q) for q in qs]).tobytes()
        singles = [gn.inverse_retract(spec, p, unchecked(gn.ManifoldPoint, manifold, q)).coords for q in qs]
        assert many.tobytes() == np.array(singles).tobytes()
        if family == "exp":
            assert many.tobytes() == manifold.log_many(p, qs).tobytes()
            if isinstance(manifold, gn.Rotations3):  # the series branch is reached
                assert (gn.manifolds.rotation_angles(p.matrix.T @ qs.reshape(-1, 3, 3)) < 1e-4).sum() >= 3


@pytest.mark.parametrize("manifold,family", SWEEP_PAIRS, ids=SWEEP_IDS)
@pytest.mark.filterwarnings("error")
def test_point_rows_inverse_retract_many_equals_closed_forms(manifold, family):
    # Row i is inverted at base i, as the closed form at that base would.
    spec = gn.RetractionSpec(family)
    for seed in (1, 2, 3):
        points, rows = _base_rows(manifold, 900 + seed)
        bases = PointRows.of(points, 1)
        qs = gn.retract_many(spec, bases, rows)
        many = gn.inverse_retract_many(spec, bases, qs)
        assert many.tobytes() == np.array([_closed_inverse(family, p, q) for p, q in zip(points, qs)]).tobytes()
        with pytest.raises(gn.ContractError):  # one target per base
            gn.inverse_retract_many(spec, bases, qs[:2])


def test_inverse_retract_many_raises_when_any_row_is_out_of_range():
    # rows 1 and 3 lie outside the hemisphere the projection inverts on, and
    # row 3 is the antipode, where the log is undefined
    manifold = gn.Sphere(3)
    p = manifold.point([0.0, 0.0, 1.0])
    qs = np.array([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    with pytest.raises(gn.InversionFailureError, match="invertible hemisphere"):
        gn.inverse_retract_many(gn.RetractionSpec("projection"), p, qs)
    with pytest.raises(gn.CutLocusError):
        gn.inverse_retract_many(gn.RetractionSpec("exp"), p, qs[2:])
    assert gn.inverse_retract_many(gn.RetractionSpec("exp"), p, qs[:3]).shape == (3, 3)


def test_residual_sweep_makes_one_call_per_map(monkeypatch):
    # one batch retraction, one batch inversion, one derivatives_fd, and
    # no per-row retract or inverse_retract
    calls = []

    def counting(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    for name in ("_retract_rows", "_inverse_rows", "derivatives_fd", "retract", "inverse_retract"):
        monkeypatch.setattr(rates, name, counting(name, getattr(rates, name)))
    for manifold, family in SWEEP_PAIRS:
        objective = _sweep_objectives(manifold)[0]
        anchor = _anchor(objective)
        rng = gn.rng_for(17)
        sweep = gn.ScaleSweep(directions=[gn.random_tangent(anchor, rng) for _ in range(3)], scales=gn.DEFAULT_SCALES[1:])
        calls.clear()
        gn.critical_residual_rows(objective, gn.RetractionSpec(family), sweep)
        assert calls == ["_retract_rows", "_inverse_rows", "derivatives_fd"]


@pytest.mark.parametrize("manifold,family", [pytest.param(m, f, id=f"{m!r}-{f}") for m, f in SWEEP_PAIRS if f != "cayley"])
def test_residual_sweep_checks_no_point_rows(manifold, family, monkeypatch):
    # The anchor was checked when it was built: the sweep hands it to the
    # inverse kernel as one row shared by every base, with no point check
    # (the Cayley kernel checks its own output, so it is left out).  A
    # caller's off-manifold row is still refused by inverse_retract_many.
    checks = []
    check = type(manifold)._check_points
    monkeypatch.setattr(type(manifold), "_check_points", lambda self, rows: checks.append(len(rows)) or check(self, rows))
    objective = _sweep_objectives(manifold)[0]
    anchor = _anchor(objective)
    rng = gn.rng_for(17)
    sweep = gn.ScaleSweep(directions=[gn.random_tangent(anchor, rng) for _ in range(3)], scales=gn.DEFAULT_SCALES[1:])
    spec = gn.RetractionSpec(family)
    checks.clear()
    rows = gn.critical_residual_rows(objective, spec, sweep)
    assert checks == [] and len(rows) == 3 * len(sweep.scales)
    points = [gn.retract(spec, d.scaled(0.1)) for d in sweep.directions]
    off = np.tile(anchor.coords, (len(points), 1))
    off[1] *= 1.0 + 1e-9
    with pytest.raises(gn.ContractError):
        gn.inverse_retract_many(spec, PointRows.of(points, 1), off)


LEMMA1_FAILURES = [
    # (manifold, family, instance seed, scales, error, message): the grid's
    # failing lemma1 invocations
    (gn.Sphere(3), "perturbed", 14, gn.DEFAULT_SCALES, gn.InversionFailureError,
     "target lies outside the range of the perturbed retraction"),
    (gn.Sphere(3), "perturbed", 0, (3.0, 1e-2), gn.InversionFailureError,
     "target lies outside the range of the perturbed retraction"),
    (gn.Sphere(10), "perturbed", 0, (3.0, 1e-2), gn.InversionFailureError,
     "target lies outside the range of the perturbed retraction"),
    (gn.Sphere(3), "perturbed", 0, (1e200, 1e-2), gn.ContractError, "tangent vector too long to map to the manifold"),
    (gn.Sphere(10), "exp", 0, (1e200, 1e-2), gn.ContractError, "tangent vector too long to map to the manifold"),
    (gn.Rotations3(), "cayley", 0, (1e200, 1e-2), gn.ContractError, "tangent vector too long to map to the manifold"),
    (gn.Rotations3(), "cayley", 0, (1e6, 1e-2), gn.ContractError, "matrix is not orthogonal"),
]


@pytest.mark.parametrize("manifold,family,seed,scales,error,message", LEMMA1_FAILURES)
@pytest.mark.filterwarnings("error")
def test_failing_lemma1_sweeps_raise_as_the_row_loop(manifold, family, seed, scales, error, message):
    # the CLI's lemma1 sweep: one direction at the seeded instance's optimum
    kind = "rayleigh" if isinstance(manifold, gn.Sphere) else "procrustes"
    objective = gn.seeded_instance(seed, kind, manifold.ambient_dim) if kind == "rayleigh" else gn.seeded_instance(seed, kind)
    sweep = gn.ScaleSweep(directions=(gn.random_tangent(_anchor(objective), gn.rng_for(seed)),), scales=scales)
    spec = gn.RetractionSpec(family)
    assert _rows_or_error(lambda: _scalar_residual_rows(objective, spec, sweep)) == (error, message)
    assert _rows_or_error(lambda: gn.critical_residual_rows(objective, spec, sweep)) == (error, message)
