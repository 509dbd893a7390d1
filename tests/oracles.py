"""Closed-form Riemannian Hessians of the four objective families, in ``p.frame``.

numpy only, so the acceptance gate's derivative criterion runs wherever the
library does.  Each returns the d x d matrix of the Hessian form
Hess J(p)[e_i, e_j] over the rows e_i of ``p.frame``, symmetrized.  That is
the Hessian of the pullback J o R_p at 0 under every retraction of order 2
(exp, projection, cayley) at every point, and under any retraction at a
critical point; away from one, the order-1 ``perturbed`` family's pullback
Hessian differs from it (``tests/test_oracle_mp.py`` pins both facts against
a 50-digit pullback).
"""

import numpy as np


def _quadratic_form_hessian(matrix, frame, multiplier):
    """2(E A E^T - mu I), symmetrized, for J = x^T A x (+ 2 b^T x) on the
    sphere, with mu the Lagrange multiplier of |x| = 1 at p."""
    out = 2.0 * (frame @ matrix @ frame.T - multiplier * np.eye(len(frame)))
    return 0.5 * (out + out.T)


def _rayleigh(objective, p):
    return _quadratic_form_hessian(objective.matrix, p.frame, objective.values(p, p.coords[None])[0])


def _tilted(objective, p):
    x = p.coords
    return _quadratic_form_hessian(objective.matrix, p.frame, float(x @ objective.matrix @ x + objective.tilt @ x))


def _skew_bodies(p):
    """W_i = Q^T e_i, skew, for the rows e_i of the rotation frame."""
    return [p.matrix.T @ row.reshape(3, 3) for row in p.frame]


def _procrustes(objective, p):
    """-trace(A^T Q W_i W_j), symmetrized: the second-order coefficient of
    -trace(A^T Q expm(W))."""
    b = objective.matrix.T @ p.matrix
    bodies = _skew_bodies(p)
    out = np.array([[-np.trace(b @ wi @ wj) for wj in bodies] for wi in bodies])
    return 0.5 * (out + out.T)


def _brockett(objective, p):
    """trace([[S, W_i], W_j] N), symmetrized, with S = Q^T M Q: the
    second-order coefficient of trace(expm(-W) S expm(W) N)."""
    q = p.matrix
    s = q.T @ objective.matrix @ q
    bodies = _skew_bodies(p)
    dim = len(bodies)
    out = np.empty((dim, dim))
    for i in range(dim):
        comm = s @ bodies[i] - bodies[i] @ s
        for j in range(dim):
            double = comm @ bodies[j] - bodies[j] @ comm
            out[i, j] = float(np.diag(double) @ objective.weights)
    return 0.5 * (out + out.T)


_HESSIANS = {"rayleigh": _rayleigh, "tilted": _tilted, "procrustes": _procrustes, "brockett": _brockett}


def riemannian_hessian(objective, p):
    """The Riemannian Hessian of ``objective`` at p, as a matrix in ``p.frame``."""
    return _HESSIANS[objective.kind](objective, p)
