"""Property tests of two retraction axioms over random points of sphere:2-20
(exp, projection, perturbed) and so3 (exp, cayley): R_p(0) = p to within 4
ulps per coordinate, and the inverse retraction of R_p(v) returns v for
|v| <= 0.4.

hypothesis is a test-only dependency: without it this module skips.  The
examples are derandomized, so every run draws the same points.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import geonewton as gn  # noqa: E402

PAIRS = [(n, f) for n in range(2, 21) for f in ("exp", "projection", "perturbed")]
PAIRS += [("so3", "exp"), ("so3", "cayley")]
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _unit(draw, size, project=lambda x: x):
    """A drawn vector in [-1, 1]^size, projected, at unit length (at least
    0.1 long before normalizing)."""
    x = project(np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))))
    norm = float(np.linalg.norm(x))
    assume(norm >= 0.1)
    return x / norm


@st.composite
def based_rows(draw):
    """(spec, p, rows): a family, a point of its manifold, and one to four
    tangent rows at p of length at most 0.4."""
    name, family = draw(st.sampled_from(PAIRS))
    if name == "so3":
        manifold = gn.Rotations3()
        angle = draw(st.floats(0.0, np.pi))
        p = manifold.point_from_matrix(gn.rotation_exp(gn.hat(angle * _unit(draw, 3))))
    else:
        manifold = gn.Sphere(name)
        p = manifold.point(_unit(draw, name))
    project = lambda x: manifold.tangent_project(p, x).coords  # noqa: E731
    lengths = draw(st.lists(st.floats(0.0, 0.4), min_size=1, max_size=4))
    rows = np.array([t * _unit(draw, manifold.ambient_dim, project) for t in lengths])
    return gn.RetractionSpec(family), p, rows


@PROPERTY
@given(based_rows())
def test_retraction_of_zero_is_the_base_point(case):
    spec, p, _ = case
    out = gn.retract_many(spec, p, np.zeros((1, p.manifold.ambient_dim)))[0]
    assert (np.abs(out - p.coords) <= 4 * np.spacing(np.abs(p.coords))).all()


@PROPERTY
@given(based_rows())
def test_inverse_retraction_returns_the_rows(case):
    spec, p, rows = case
    back = gn.inverse_retract_many(spec, p, gn.retract_many(spec, p, rows))
    assert np.abs(back - rows).max() <= 1e-12
