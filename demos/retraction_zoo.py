"""Measure the order of every retraction family against the exponential map.

A family of order k satisfies d(R_p(v), exp_p(v)) = O(|v|^{k+1}), so on a
log-log plot of distance against |v| the points fall on a line of slope
k + 1.  This script sweeps |v| over 2^-2 .. 2^-12 in five random tangent
directions and prints the fitted slopes.
"""

import geonewton as gn


def describe(manifold, families, seed):
    p = gn.random_point(manifold, gn.rng_for(seed))
    sweep = gn.make_sweep(p, n_directions=5, seed=seed + 1)
    print(f"\n{manifold!r}, base point sampled with seed {seed}")
    print(f"{'family':12s} {'declared':>9s} {'slope':>8s} {'order':>8s} {'R^2':>8s}")
    for family in families:
        spec = gn.RetractionSpec(family)
        est = gn.fit_rows(gn.retraction_order_rows(spec, sweep))
        if est.saturated:
            print(f"{family:12s} {spec.declared_order!s:>9s} {'-':>8s} {'-':>8s}   saturated "
                  "(distances at rounding noise: the map is the exponential itself)")
        else:
            print(f"{family:12s} {spec.declared_order!s:>9s} {est.slope:8.3f} "
                  f"{est.slope - 1:8.3f} {est.r_squared:8.5f}")


def main():
    describe(gn.Sphere(3), ["exp", "projection", "perturbed"], seed=1)
    describe(gn.Rotations3(), ["exp", "cayley"], seed=2)
    print("\nThe projection and Cayley maps agree with the exponential to second "
          "order (slope 3); the perturbed family deviates at second order "
          "(slope 2), making it an order-1 retraction.")


if __name__ == "__main__":
    main()
