import numpy as np
import pytest

import geonewton as gn


EXP = gn.RetractionSpec("exp")
PROJ = gn.RetractionSpec("projection")
PERT = gn.RetractionSpec("perturbed")
CAY = gn.RetractionSpec("cayley")


# ---- log-log fitting


def test_fit_exact_power_law():
    est = gn.fit_loglog([0.1, 0.01, 0.001], [1e-2, 1e-4, 1e-6])
    assert est.slope == pytest.approx(2.0, abs=1e-12)
    assert est.r_squared == pytest.approx(1.0, abs=1e-12)
    assert est.points_used == 3
    assert not est.saturated


def test_fit_saturates_below_floor():
    est = gn.fit_loglog([0.1, 0.01], [1e-16, 1e-16], floor=1e-13)
    assert est.saturated
    assert est.points_used == 0
    assert est.r_squared == 0.0
    # one distinct x among the points above the floor leaves no line to fit
    est = gn.fit_loglog([0.5, 0.5, 0.5, 0.1], [1e-2, 1e-3, 1e-4, 1e-16], floor=1e-13)
    assert est.saturated
    assert est.points_used == 3
    assert est.r_squared == 0.0


def test_fit_with_jitter():
    rng = gn.rng_for(40)
    xs = np.array([2.0 ** (-k) for k in range(2, 12)])
    ys = 0.7 * xs**3 * (1.0 + 0.01 * rng.uniform(-1, 1, size=xs.size))
    est = gn.fit_loglog(xs, ys)
    assert 2.9 <= est.slope <= 3.1
    assert est.constant == pytest.approx(0.7, rel=0.1)


def test_fit_rejects_bad_input(capfd):
    with pytest.raises(gn.ContractError):
        gn.fit_loglog([1.0, 0.5], [1.0])
    with pytest.raises(gn.ContractError):
        gn.fit_loglog([1.0, -0.5], [1.0, 1.0])
    with pytest.raises(gn.ContractError):
        gn.fit_loglog([1.0, 0.5], [1.0, -1.0])
    # non-finite input is refused before any log or LAPACK call: no warning,
    # nothing on stderr
    for bad in (np.inf, np.nan):
        for xs, ys in (([1.0, bad, 0.25], [1.0, 0.5, 0.25]), ([1.0, 0.5, 0.25], [1.0, bad, 0.25])):
            with pytest.raises(gn.ContractError, match="finite"):
                gn.fit_loglog(xs, ys)
        with pytest.raises(gn.ContractError, match="finite"):
            gn.rate_from_errors([1e-1, 1e-2, bad, 1e-4, 1e-8])
    assert capfd.readouterr().err == ""


# ---- retraction order estimates


def test_exponential_order_saturates(sphere3):
    sweep = gn.make_sweep(gn.random_point(sphere3, gn.rng_for(41)), 5, seed=42)
    est = gn.fit_rows(gn.retraction_order_rows(EXP, sweep))
    assert est.saturated


def test_projection_order(sphere3):
    sweep = gn.make_sweep(gn.random_point(sphere3, gn.rng_for(43)), 5, seed=44)
    est = gn.fit_rows(gn.retraction_order_rows(PROJ, sweep))
    assert 2.8 <= est.slope <= 3.2


def test_perturbed_order(sphere3):
    sweep = gn.make_sweep(gn.random_point(sphere3, gn.rng_for(45)), 5, seed=46)
    est = gn.fit_rows(gn.retraction_order_rows(PERT, sweep))
    assert 1.8 <= est.slope <= 2.2


def test_cayley_order(rotations):
    sweep = gn.make_sweep(gn.random_point(rotations, gn.rng_for(47)), 5, seed=48)
    est = gn.fit_rows(gn.retraction_order_rows(CAY, sweep))
    assert 2.8 <= est.slope <= 3.2


@pytest.mark.parametrize("family", ["projection", "perturbed"])
def test_order_direction_independent(sphere3, family):
    spec = gn.RetractionSpec(family)
    p = gn.random_point(sphere3, gn.rng_for(49))
    slopes = []
    for k in range(10):
        sweep = gn.make_sweep(p, 1, seed=900 + k)
        slopes.append(gn.fit_rows(gn.retraction_order_rows(spec, sweep)).slope)
    assert max(slopes) - min(slopes) <= 0.3


# ---- residual decay at critical anchors


def test_residual_requires_critical_anchor(sphere3, rayleigh_321):
    p = sphere3.point(np.array([1.0, 1.0, 0.0]) / np.sqrt(2))
    sweep = gn.make_sweep(p, 1, seed=50)
    with pytest.raises(gn.PreconditionError):
        gn.critical_residual_rows(rayleigh_321, EXP, sweep)


def test_residual_quadratic_under_order1(sphere3, rayleigh_321):
    sweep = gn.make_sweep(sphere3.point([1, 0, 0]), 3, seed=51)
    est = gn.fit_rows(gn.critical_residual_rows(rayleigh_321, PERT, sweep))
    assert 1.8 <= est.slope <= 2.2
    assert est.r_squared >= 0.98


def test_residual_superquadratic_under_exponential(sphere3, rayleigh_321):
    # For the quadratic-form objective the pullback's cubic term vanishes at
    # critical points, so the decay beats the guaranteed exponent 2; the
    # bound |grad + Hess v| <~ |v|^2 holds with room to spare.
    sweep = gn.make_sweep(sphere3.point([1, 0, 0]), 3, seed=52)
    est = gn.fit_rows(gn.critical_residual_rows(rayleigh_321, EXP, sweep))
    assert est.slope >= 1.9
    assert est.slope >= 2.6  # measured: cubic decay, not quadratic


# ---- distance deviations


@pytest.mark.parametrize("family", ["exp", "projection", "perturbed"])
def test_deviation_sphere(sphere3, family):
    p = gn.random_point(sphere3, gn.rng_for(53))
    rng = gn.rng_for(54)
    v = gn.random_tangent(p, rng)
    w = gn.random_tangent(p, rng)
    est = gn.fit_rows(gn.distance_deviation_rows(gn.RetractionSpec(family), v, w))
    assert est.saturated or est.slope >= 1.9


@pytest.mark.parametrize("family", ["exp", "cayley"])
def test_deviation_rotations(rotations, family):
    p = gn.random_point(rotations, gn.rng_for(55))
    rng = gn.rng_for(56)
    v = gn.random_tangent(p, rng)
    w = gn.random_tangent(p, rng)
    est = gn.fit_rows(gn.distance_deviation_rows(gn.RetractionSpec(family), v, w))
    assert est.saturated or est.slope >= 1.9


def test_deviation_same_direction_saturates(sphere3):
    p = gn.random_point(sphere3, gn.rng_for(57))
    v = gn.random_tangent(p, gn.rng_for(58))
    est = gn.fit_rows(gn.distance_deviation_rows(EXP, v, v))
    assert est.saturated


# ---- Taylor remainder slopes


@pytest.mark.parametrize("family", ["exp", "projection", "perturbed"])
def test_taylor_slope_sphere(sphere3, rayleigh_321, family):
    p = gn.random_point(sphere3, gn.rng_for(59))
    sweep = gn.make_sweep(p, 3, seed=60)
    est = gn.fit_rows(gn.taylor_remainder_rows(rayleigh_321, gn.RetractionSpec(family), sweep))
    assert 2.7 <= est.slope <= 3.3


def test_taylor_slope_rotations(rotations):
    objective = gn.seeded_instance(3, "procrustes")
    p = gn.random_point(rotations, gn.rng_for(61))
    sweep = gn.make_sweep(p, 3, seed=62)
    est = gn.fit_rows(gn.taylor_remainder_rows(objective, CAY, sweep))
    assert 2.7 <= est.slope <= 3.3


def test_taylor_at_critical_point(sphere3, rayleigh_321):
    # the remainder collapses at critical points: saturation or an even
    # faster decay are both acceptable outcomes
    sweep = gn.make_sweep(sphere3.point([1, 0, 0]), 2, seed=63)
    est = gn.fit_rows(gn.taylor_remainder_rows(rayleigh_321, EXP, sweep))
    assert est.saturated or est.slope >= 2.7


# ---- monotone sweep sanity


def test_measurements_monotone_below_threshold(sphere3, rayleigh_321):
    p = gn.random_point(sphere3, gn.rng_for(64))
    sweep = gn.make_sweep(p, 3, seed=65)
    anchor_sweep = gn.make_sweep(sphere3.point([1, 0, 0]), 2, seed=66)
    rng = gn.rng_for(67)
    v, w = gn.random_tangent(p, rng), gn.random_tangent(p, rng)
    row_sets = [
        gn.retraction_order_rows(PROJ, sweep),
        gn.retraction_order_rows(PERT, sweep),
        gn.critical_residual_rows(rayleigh_321, EXP, anchor_sweep),
        gn.distance_deviation_rows(EXP, v, w),
        gn.taylor_remainder_rows(rayleigh_321, EXP, sweep),
    ]
    for rows in row_sets:
        by_direction = {}
        for direction_id, x, y in rows:
            by_direction.setdefault(direction_id, []).append((x, y))
        for seq in by_direction.values():
            filtered = [(x, y) for x, y in seq if x < 2.0**-4 and y > 1e-13]
            for (_, y1), (_, y2) in zip(filtered, filtered[1:]):
                assert y2 <= y1


# ---- convergence rates


def test_rate_exact_quadratic_sequence():
    report = gn.rate_from_errors([1e-1, 1e-2, 1e-4, 1e-8])
    assert report.fitted_rate == pytest.approx(2.0, abs=1e-12)
    assert report.fitted_constant == pytest.approx(1.0, rel=1e-10)
    assert report.pairs_used == 3
    for s in report.pair_slopes:
        assert s == pytest.approx(2.0, abs=1e-12)


def test_rate_pairs_are_the_fitted_pairs():
    # a pair counts only when both errors lie above the floor, and the rate
    # is the log-log fit through exactly the pairs the report carries
    report = gn.rate_from_errors([1e-1, 1e-2, 1e-4, 1e-14, 1e-3, 1e-6], floor=1e-13)
    assert report.pairs == ((1e-1, 1e-2), (1e-2, 1e-4), (1e-3, 1e-6))
    assert report.pairs_used == len(report.pair_slopes) == 3
    fit = gn.fit_loglog([a for a, _ in report.pairs], [b for _, b in report.pairs])
    assert report.fitted_rate == fit.slope


def test_rate_insufficient_data():
    with pytest.raises(gn.InsufficientDataError):
        gn.rate_from_errors([1e-1, 1e-2])
    # two pairs, but both start from the same error
    with pytest.raises(gn.InsufficientDataError):
        gn.rate_from_errors([0.5, 0.5, 0.5])


def test_rate_pair_slope_at_unit_error_is_non_finite():
    # log e_k = 0 at e_k = 1: the pair slope is -inf, read without a numpy
    # warning (pytest turns one into an error), and the fit is unaffected
    report = gn.rate_from_errors([1.0, 1e-1, 1e-2, 1e-4])
    assert report.pair_slopes[0] == -np.inf
    assert report.pair_slopes[1:] == pytest.approx((2.0, 2.0), abs=1e-12)
    fit = gn.fit_loglog([a for a, _ in report.pairs], [b for _, b in report.pairs])
    assert report.fitted_rate == fit.slope


def test_rate_requires_pairs_above_floor():
    with pytest.raises(gn.InsufficientDataError):
        gn.rate_from_errors([1e-1, 1e-14, 1e-14, 1e-14], floor=1e-13)


def test_rate_of_reference_newton_trace(sphere3, rayleigh_321):
    # the order-1 retraction shows the plain quadratic contraction; the fit
    # floor sits above the finite-difference distance floor of ~1.5e-10
    p0 = sphere3.point(np.array([0.1, 0.1, 1.0]) / np.linalg.norm([0.1, 0.1, 1.0]))
    trace = gn.newton_run(rayleigh_321, gn.NewtonConfig(retraction=PERT, tol=1e-9), p0)
    errors = sphere3.distance_many(np.array([p.coords for p in trace.points]), np.array([0.0, 0.0, 1.0]))
    report = gn.rate_from_errors(errors, floor=1e-8)
    assert 1.8 <= report.fitted_rate <= 2.2
    assert report.pairs_used >= 2


def test_rate_consistent_with_pair_slopes(sphere3, rayleigh_321):
    p0 = sphere3.point(np.array([0.1, 0.1, 1.0]) / np.linalg.norm([0.1, 0.1, 1.0]))
    trace = gn.newton_run(rayleigh_321, gn.NewtonConfig(retraction=PERT, tol=1e-9), p0)
    errors = sphere3.distance_many(np.array([p.coords for p in trace.points]), np.array([0.0, 0.0, 1.0]))
    report = gn.rate_from_errors(errors, floor=1e-8)
    assert abs(report.fitted_rate - np.mean(report.pair_slopes)) <= 0.3


# ---- sweep validation


def test_sweep_validation(sphere3):
    p = sphere3.point([1, 0, 0])
    v = gn.TangentVector(p, [0, 1, 0])
    with pytest.raises(gn.ContractError):
        gn.ScaleSweep(directions=())
    with pytest.raises(gn.ContractError):
        gn.ScaleSweep(directions=(v,), scales=(0.1, 0.2))
    for scales in ((np.inf, 1.0), (np.nan,), (1.0, np.nan)):
        with pytest.raises(gn.ContractError, match="finite"):
            gn.ScaleSweep(directions=(v,), scales=scales)
    with pytest.raises(gn.ContractError):
        gn.ScaleSweep(directions=(v.scaled(2.0),))


@pytest.mark.filterwarnings("error")
def test_one_scale_check_for_every_sweep(sphere3):
    # ScaleSweep, distance_deviation_rows and the CLI's --scales share one rule
    p = sphere3.point([0, 0, 1])
    v, w = gn.TangentVector(p, [1, 0, 0]), gn.TangentVector(p, [0, 1, 0])
    for scales in ((np.inf,), (np.nan,), (-1.0,), (0.5, 0.5), ()):
        with pytest.raises(gn.ContractError):
            gn.distance_deviation_rows(EXP, v, w, scales)
        with pytest.raises(gn.ContractError):
            gn.ScaleSweep(directions=(v,), scales=scales)
    assert [type(x) for _, x, _ in gn.distance_deviation_rows(EXP, v, w, [0.5, np.float32(0.25)])] == [float, float]
