"""The second-order coefficient of J o R_p depends on the retraction.

Reading the gradient and Hessian off the Taylor expansion of the pulled-back
objective is exact for the gradient under any retraction, but the Hessian
picks up a term from the retraction's own second-order behavior.  For the
order-1 family R_p(v) = normalize(p + v + |v|^2 u), that term is exactly
2 <grad J(p), u> times the identity, and it vanishes at critical points.
"""

import numpy as np

import geonewton as gn


def main():
    sphere = gn.Sphere(3)
    objective = gn.Rayleigh(np.diag([3.0, 2.0, 1.0]))
    exp_spec = gn.RetractionSpec("exp")
    pert_spec = gn.RetractionSpec("perturbed")

    p = gn.random_point(sphere, gn.rng_for(8))
    h_exp = gn.hessian_fd(objective, exp_spec, p)
    h_pert = gn.hessian_fd(objective, pert_spec, p)
    grad = objective.analytic_gradient(p)
    shift = 2.0 * np.dot(grad.coords, p.frame[0])

    print("at a generic (non-critical) point:")
    print("Hessian under the exponential map:\n", h_exp.matrix.round(8))
    print("Hessian under the order-1 retraction:\n", h_pert.matrix.round(8))
    print("difference:\n", (h_pert.matrix - h_exp.matrix).round(8))
    print(f"predicted shift 2<grad, u> = {shift:.8f}")
    gap = np.linalg.norm(h_pert.matrix - h_exp.matrix - shift * np.eye(2), "fro")
    print(f"|difference - shift * I|_F = {gap:.2e}")

    p_c = sphere.point([1.0, 0.0, 0.0])  # eigenvector: critical point
    h_exp_c = gn.hessian_fd(objective, exp_spec, p_c)
    h_pert_c = gn.hessian_fd(objective, pert_spec, p_c)
    print("\nat the critical point (1, 0, 0) the gradient vanishes and the "
          "two Hessians coincide:")
    print(f"|H_exp - H_pert|_F = {np.linalg.norm(h_exp_c.matrix - h_pert_c.matrix, 'fro'):.2e}")
    print("H_exp:\n", h_exp_c.matrix.round(6), "\n(analytic value: diag(-2, -4))")


if __name__ == "__main__":
    main()
