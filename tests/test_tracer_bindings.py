"""The benchmark tracer wraps geonewton functions at every module that binds
them, and refuses to run when a binding it expects is gone.  Installing and
uninstalling it here shows a lost binding in the tier-1 suite, not only in a
traced benchmark pass."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import geonewton as gn

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("geonewton_benchmark_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_full_tracer_installs_and_uninstalls():
    tracer = _load_tracer()
    holders = {}
    for target in tracer.TARGETS:
        for name in (target.owner, *target.sites):
            holders[name, target.attr] = tracer._resolve(name)
    before = {key: holder.__dict__.get(key[1]) for key, holder in holders.items()}

    traced = tracer.Tracer()
    traced.install()  # raises TraceBlindError if a target or binding is gone
    try:
        for target in tracer.TARGETS:
            wrapped = tracer._resolve(target.owner).__dict__[target.attr]
            assert wrapped is not before[target.owner, target.attr]
            for site in target.sites:
                assert tracer._resolve(site).__dict__[target.attr] is wrapped
    finally:
        traced.uninstall()
    assert {key: holder.__dict__.get(key[1]) for key, holder in holders.items()} == before


def test_tracer_sees_every_frame_build():
    # Each point's frame is built once, by tangent_basis, whichever read asks
    # for it first: a Newton run builds one per iterate (sphere:20 is above
    # the complex-step Hessian crossover, so every Hessian is hessian_fd's),
    # and a lemma1 sweep one per swept point.
    tracer = _load_tracer()
    traced = tracer.Tracer()
    traced.install()
    try:
        def frame_spans():
            return sum(traced.names[nid] == "manifolds.tangent_basis" for nid in traced.name)

        with traced.root("op"):
            objective = gn.Rayleigh(np.diag(np.arange(20.0, 0.0, -1.0)))
            x = np.zeros(20)
            x[-1] = 1.0
            x += 0.05 * gn.rng_for(0).standard_normal(20)
            p0 = gn.Sphere(20).point(x / np.linalg.norm(x))
            trace = gn.newton_run(objective, gn.NewtonConfig(gn.RetractionSpec("exp")), p0)
            newton_spans = frame_spans()

            anchor = gn.Sphere(3).point([0.0, 0.0, 1.0])
            sweep = gn.ScaleSweep(directions=[gn.random_tangent(anchor, gn.rng_for(1))])
            rows = gn.critical_residual_rows(gn.Rayleigh(np.diag([3.0, 2.0, 1.0])), gn.RetractionSpec("exp"), sweep)
            sweep_spans = frame_spans() - newton_spans
    finally:
        traced.uninstall()
    assert trace.status is gn.NewtonStatus.CONVERGED
    assert newton_spans == len(trace.points)
    assert sweep_spans >= len(rows) == len(sweep.scales)
