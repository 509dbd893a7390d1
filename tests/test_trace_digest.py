"""tools/trace_digest.py tells traces apart down to one bit and one signed zero."""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

import geonewton as gn

DIGEST_PATH = Path(__file__).resolve().parent.parent / "tools" / "trace_digest.py"
_spec = importlib.util.spec_from_file_location("trace_digest", DIGEST_PATH)
trace_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trace_digest)


@dataclasses.dataclass
class _Op:
    """Stands in for a benchmark NewtonOp: a group label and a fixed trace."""

    label: str
    trace: gn.IterationTrace

    def run(self):
        return self.trace


def _digest(*traces, label="sphere3.exp"):
    return trace_digest.digest([_Op(label, trace) for trace in traces])


def test_digest_sees_every_traced_field(sphere3, rayleigh_321):
    config = gn.NewtonConfig(retraction=gn.RetractionSpec("exp"))
    start = np.array([0.1, 0.1, 1.0]) / np.linalg.norm([0.1, 0.1, 1.0])
    trace = gn.newton_run(rayleigh_321, config, sphere3.point(start))
    assert trace.status == gn.NewtonStatus.CONVERGED and trace.iterations >= 2
    same = gn.newton_run(rayleigh_321, config, sphere3.point(start))
    assert _digest(trace) == _digest(same)
    last = trace.points[-1].coords.copy()
    last[np.argmin(np.abs(last))] *= -1.0  # about 1e-18: the point stays on the sphere
    moved = [
        dataclasses.replace(trace, grad_norms=trace.grad_norms[:-1] + (np.nextafter(trace.grad_norms[-1], 1.0),)),
        dataclasses.replace(trace, step_norms=(np.nextafter(trace.step_norms[0], 0.0),) + trace.step_norms[1:]),
        dataclasses.replace(trace, status=gn.NewtonStatus.STALLED),
        dataclasses.replace(trace, points=trace.points[:-1] + (sphere3.point(last),)),
    ]
    for other in moved:
        assert _digest(other) != _digest(trace)
    zero, negative_zero = (dataclasses.replace(trace, points=trace.points[:-1] + (sphere3.point([sign, 0.0, 1.0]),))
                           for sign in (0.0, -0.0))
    assert _digest(zero) != _digest(negative_zero)
    assert _digest(trace, label="sphere3.projection") != _digest(trace)
    assert _digest(trace, trace) != _digest(trace)
