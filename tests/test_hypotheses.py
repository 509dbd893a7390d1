"""The objective's hypotheses: what Newton reads when one of them fails.

The quadratic rate assumes a nondegenerate critical point.  J(x) =
x^T diag(1, 2, 1) x + x_1^4 on S^2 has a degenerate minimum at e3: on the
sphere J = 1 + x_2^2 + x_1^4, so along the great circle through e3 and e1
the pullback is J = 1 + sin^4 t, whose gradient vanishes to third order.
Newton then contracts linearly, by exactly 2/3 (a step t - 4 t^3 / (12 t^2)),
under every retraction family.  J is a polynomial, so it is holomorphic and
Newton reads it by complex step.

References: Decker & Kelley, "Newton's method at singular points I", SIAM J.
Numer. Anal. 1980; Griewank, "On solving nonlinear equations with simple
singularities or nearly singular solutions", SIAM Rev. 1985.
"""

import numpy as np
import pytest

import geonewton as gn

START_DIST = 0.05  # the CLI's Newton start distance
SKIPPED_RATIOS = 3  # the first ratios still carry the start's higher-order terms
RATE = 2.0 / 3.0
BAND = 0.01  # exp and projection: 0.6637-0.6677 over seeds 0-47
# The order-1 perturbed retraction bends the first steps: over seeds 0-15 its
# ratios read 0.648-0.672 (at most 0.019 from 2/3).  This band was set there
# and is confirmed on the held-out seeds 16-47 (0.657-0.687).
PERTURBED_BAND = 0.025
SET_SEEDS, HELD_OUT_SEEDS = range(16), range(16, 48)
# Where "converged" would be truthful: the benchmark's distance check.
TRUE_DIST = 1e-8

SPHERE = gn.Sphere(3)
E3 = SPHERE.point([0.0, 0.0, 1.0])


class DegenerateQuartic:
    """x^T diag(1, 2, 1) x + x_1^4, holomorphic, with a degenerate minimum at e3."""

    holomorphic = True

    def values(self, p, points):
        x1, x2, x3 = points[:, 0], points[:, 1], points[:, 2]
        return x1 * x1 + 2.0 * x2 * x2 + x3 * x3 + x1 ** 4

    def value(self, p):
        return float(self.values(p, p.coords[None])[0])


def _run(family, seed):
    """Newton from START_DIST away from e3 along a seeded direction: the trace
    and the geodesic distance of every iterate to e3."""
    p0 = SPHERE.exp_map(gn.random_tangent(E3, gn.rng_for(seed)).scaled(START_DIST))
    trace = gn.newton_run(DegenerateQuartic(), gn.NewtonConfig(retraction=gn.RetractionSpec(family)), p0)
    return trace, np.array([SPHERE.geodesic_distance(q, E3) for q in trace.points])


def _ratios(family, seeds):
    """Every contraction ratio e_{k+1} / e_k past the first SKIPPED_RATIOS, over the seeds."""
    ratios = []
    for seed in seeds:
        _, errors = _run(family, seed)
        ratios.extend(errors[1:][SKIPPED_RATIOS:] / errors[:-1][SKIPPED_RATIOS:])
    return np.array(ratios)


def test_pullback_along_the_flat_direction_is_one_plus_sin_to_the_fourth():
    t = np.linspace(-0.3, 0.3, 61)
    points = np.stack([np.sin(t), np.zeros_like(t), np.cos(t)], axis=1)
    assert np.allclose(DegenerateQuartic().values(E3, points), 1.0 + np.sin(t) ** 4, rtol=0, atol=4e-16)
    assert DegenerateQuartic().value(E3) == 1.0


@pytest.mark.parametrize("family", ("exp", "projection"))
def test_degenerate_minimum_contracts_by_two_thirds(family):
    ratios = _ratios(family, range(48))
    assert len(ratios) >= 48 * 10
    assert np.abs(ratios - RATE).max() <= BAND


@pytest.mark.parametrize("seeds", (SET_SEEDS, HELD_OUT_SEEDS), ids=("set", "held_out"))
def test_degenerate_minimum_perturbed_band(seeds):
    ratios = _ratios("perturbed", seeds)
    assert len(ratios) >= len(seeds) * 10
    assert np.abs(ratios - RATE).max() <= PERTURBED_BAND


@pytest.mark.xfail(strict=True, reason="converged bounds the gradient norm only: the degenerate run stops "
                                       "4.2e-5 to 6.3e-5 from e3 once |grad| ~ 4 t^3 falls below tol")
def test_converged_degenerate_run_ends_at_the_minimum():
    for family in ("exp", "projection", "perturbed"):
        for seed in range(4):
            trace, errors = _run(family, seed)
            assert trace.status is not gn.NewtonStatus.CONVERGED or errors[-1] <= TRUE_DIST
