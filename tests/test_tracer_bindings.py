"""The benchmark tracer wraps geonewton functions at every module that binds
them, and refuses to run when a binding it expects is gone.  Installing and
uninstalling it here shows a lost binding in the tier-1 suite, not only in a
traced benchmark pass."""

import importlib.util
import sys
from pathlib import Path

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
