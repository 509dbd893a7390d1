import numpy as np
import pytest

import geonewton as gn


@pytest.fixture
def sphere3():
    return gn.Sphere(3)


@pytest.fixture
def rotations():
    return gn.Rotations3()


@pytest.fixture
def rayleigh_321():
    return gn.Rayleigh(np.diag([3.0, 2.0, 1.0]))


class FDOnly:
    """Delegates every attribute to ``inner`` except ``holomorphic``, so
    ``newton_run`` reads its gradient by finite differences, as it does for
    any objective that does not declare itself holomorphic."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        if name == "holomorphic":
            raise AttributeError(name)
        return getattr(self.inner, name)


@pytest.fixture
def fd_only():
    return FDOnly


class Scaled:
    """J times a constant, read through ``values`` only."""

    holomorphic = True

    def __init__(self, inner, factor):
        self.inner, self.factor = inner, factor

    def values(self, p, points):
        return self.factor * self.inner.values(p, points)


@pytest.fixture(scope="session")
def scaled():
    return Scaled


@pytest.fixture
def tangency_checks(monkeypatch):
    """The row count of every ``_check_tangents`` call on either manifold
    class, in call order, for the rest of the test."""
    calls = []
    for cls in (gn.Sphere, gn.Rotations3):
        check = cls._check_tangents
        monkeypatch.setattr(cls, "_check_tangents",
                            lambda self, p, rows, _check=check: calls.append(len(rows)) or _check(self, p, rows))
    return calls
