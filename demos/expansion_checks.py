"""Slope checks behind the convergence proof, measured rather than assumed.

Three quantities should shrink at known rates as the probe scale s drops:

* cubic remainder of the second-order expansion of J o R_p  -> slope 3
* |d(R_p(sv), R_p(sw)) - s|v - w||                           -> slope >= 2
* |grad J(p) + Hess J(p) v| with p walking into a critical
  point and v pointing back at it                            -> slope >= 2

Each is fitted over scales 2^-2 .. 2^-12 with a 1e-13 noise floor.
"""

import numpy as np

import geonewton as gn


def main():
    sphere = gn.Sphere(3)
    objective = gn.Rayleigh(np.diag([3.0, 2.0, 1.0]))

    p = gn.random_point(sphere, gn.rng_for(21))
    sweep = gn.make_sweep(p, n_directions=3, seed=22)
    print("Taylor remainder of J o R_p (expect slope ~3):")
    for family in ("exp", "projection", "perturbed"):
        est = gn.fit_rows(gn.taylor_remainder_rows(objective, gn.RetractionSpec(family), sweep))
        print(f"  {family:12s} slope {est.slope:.3f}  R^2 {est.r_squared:.5f}")

    rng = gn.rng_for(23)
    v, w = gn.random_tangent(p, rng), gn.random_tangent(p, rng)
    print("\ndistance deviation d(R(sv), R(sw)) vs s|v-w| (expect slope >= 2):")
    for family in ("exp", "projection", "perturbed"):
        est = gn.fit_rows(gn.distance_deviation_rows(gn.RetractionSpec(family), v, w))
        print(f"  {family:12s} slope {est.slope:.3f}")

    anchor = sphere.point([1.0, 0.0, 0.0])  # top eigenvector of diag(3,2,1)
    anchor_sweep = gn.make_sweep(anchor, n_directions=3, seed=24)
    print("\nresidual |grad + Hess v| walking into the critical point "
          "(guaranteed slope >= 2):")
    for family in ("exp", "projection", "perturbed"):
        est = gn.fit_rows(gn.critical_residual_rows(objective, gn.RetractionSpec(family), anchor_sweep))
        print(f"  {family:12s} slope {est.slope:.3f}  R^2 {est.r_squared:.5f}")
    print("\nNote the order-2 families come out cubic on this objective: the "
          "quadratic form's pullback has no third-order term at critical "
          "points, so the quadratic bound holds with an extra order to spare. "
          "The order-1 family shows the generic quadratic decay.")


if __name__ == "__main__":
    main()
