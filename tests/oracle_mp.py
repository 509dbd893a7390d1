"""The gradient and Hessian of the pullback c -> J(R_p(sum_i c_i e_i)) at 0,
computed at 50 significant digits by ``mpmath.diff``.

The e_i are the rows of the library's own ``p.frame`` and p is the library's
point, each float converted exactly to an mpf, so the result is the pullback
of the float inputs the library reads, to 50 digits and whatever the family's
order: the truth a finite-difference or complex-step read approximates.  Every
objective family (its ``kind``) and every retraction family on its manifold is
covered: exp, projection and perturbed on the sphere, exp (Rodrigues) and
cayley on SO(3).

Needs mpmath: import this module only after ``pytest.importorskip("mpmath")``.
"""

import mpmath
import numpy as np

import geonewton as gn

DIGITS = 50


def _mp(values):
    """Floats to mpf, exactly, as nested lists."""
    return [_mp(v) for v in values] if np.ndim(values) else mpmath.mpf(float(values))


def _matmul(a, b):
    """Product of two matrices held as nested lists."""
    cols = list(zip(*b))
    return [[mpmath.fdot(row, col) for col in cols] for row in a]


def _unit(y):
    norm = mpmath.sqrt(mpmath.fdot(y, y))
    return [t / norm for t in y]


def _as_matrix(row):
    return [row[0:3], row[3:6], row[6:9]]


def _skew_body(q, v):
    """W = skew(Q^T V), as the library's kernels take it."""
    body = _matmul(list(zip(*q)), _as_matrix(v))
    return [[(body[i][j] - body[j][i]) / 2 for j in range(3)] for i in range(3)]


def _sphere_exp(x, v, frame0):
    n = mpmath.sqrt(mpmath.fdot(v, v))
    return _unit([mpmath.cos(n) * a + mpmath.sinc(n) * b for a, b in zip(x, v)])


def _sphere_projection(x, v, frame0):
    return _unit([a + b for a, b in zip(x, v)])


def _sphere_perturbed(x, v, frame0):
    sq = mpmath.fdot(v, v)
    return _unit([a + b + sq * u for a, b, u in zip(x, v, frame0)])


def _rotation_exp(x, v, frame0):
    """Q expm(W) by Rodrigues: I + sinc(t) W + (1 - cos t)/t^2 W^2, t = |vee(W)|."""
    q = _as_matrix(x)
    w = _skew_body(q, v)
    t = mpmath.sqrt(w[2][1] ** 2 + w[0][2] ** 2 + w[1][0] ** 2)
    a, b = mpmath.sinc(t), mpmath.sinc(t / 2) ** 2 / 2
    w2 = _matmul(w, w)
    rot = [[(i == j) + a * w[i][j] + b * w2[i][j] for j in range(3)] for i in range(3)]
    return [entry for row in _matmul(q, rot) for entry in row]


def _cayley(x, v, frame0):
    """Q (I - W/2)^{-1} (I + W/2)."""
    q = _as_matrix(x)
    w = _skew_body(q, v)
    minus = mpmath.matrix([[(i == j) - w[i][j] / 2 for j in range(3)] for i in range(3)])
    plus = mpmath.matrix([[(i == j) + w[i][j] / 2 for j in range(3)] for i in range(3)])
    rot = (mpmath.inverse(minus) * plus).tolist()
    return [entry for row in _matmul(q, rot) for entry in row]


_RETRACTIONS = {
    ("sphere", "exp"): _sphere_exp,
    ("sphere", "projection"): _sphere_projection,
    ("sphere", "perturbed"): _sphere_perturbed,
    ("so3", "exp"): _rotation_exp,
    ("so3", "cayley"): _cayley,
}


def _objective(objective):
    """J of one point (a list of mpf) for each objective kind."""
    a = _mp(objective.matrix)

    def quadratic(y):
        return mpmath.fdot(y, [mpmath.fdot(row, y) for row in a])

    if objective.kind == "rayleigh":
        return quadratic
    if objective.kind == "tilted":
        b = _mp(objective.tilt)
        return lambda y: quadratic(y) + 2 * mpmath.fdot(b, y)
    if objective.kind == "procrustes":
        flat = [entry for row in a for entry in row]
        return lambda y: -mpmath.fdot(flat, y)
    weights = _mp(objective.weights)  # brockett: trace(Q^T M Q N) = sum_k n_k q_k^T M q_k, q_k the columns of Q
    return lambda y: mpmath.fdot(weights, [quadratic(col) for col in zip(*_as_matrix(y))])


def pullback_derivatives(objective, family, p):
    """(g, H): the gradient coefficients (d,) and Hessian (d x d) of
    c -> J(R_p(sum_i c_i e_i)) at c = 0 over the rows e_i of ``p.frame``, as
    floats rounded from 50-digit values."""
    retraction = _RETRACTIONS[("so3" if isinstance(p.manifold, gn.Rotations3) else "sphere", family)]
    with mpmath.workdps(DIGITS):
        x, frame = _mp(p.coords), _mp(p.frame)
        value = _objective(objective)
        dim = len(frame)

        def pulled_back(*c):
            v = [mpmath.fdot(c, column) for column in zip(*frame)]
            return value(retraction(x, v, frame[0]))

        def partial(*axes):
            return mpmath.diff(pulled_back, (0,) * dim, tuple(axes.count(k) for k in range(dim)))

        gradient = [partial(i) for i in range(dim)]
        hessian = [[None] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                hessian[i][j] = hessian[j][i] = partial(i, j)
        return (np.array([float(t) for t in gradient]),
                np.array([[float(t) for t in row] for row in hessian]))
