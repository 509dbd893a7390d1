"""Print one sha256 per Newton benchmark workload and seed over its traces.

Usage:

    python3 tools/trace_digest.py SRC

SRC is the ``src`` directory of a checkout; its ``geonewton`` package is
imported and run in process. The blocks of the newton-fd and newton-order1
workloads are built at seeds 1 and 7 by this checkout's
``benchmarks/workloads.py`` (which draws every instance from SRC's
``sampling``), every op is run once, and each line's digest covers, op by op
in block order, the op's group label, its trace's status, the bytes of every
iterate's coordinates, and the exact (hex) values of its gradient norms and
step lengths. Nothing is written.

Two checkouts whose printed lines match take the same Newton steps, to the
byte, on every benchmark instance. Compare them with ``diff``.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("newton-fd", "newton-order1")
SEEDS = (1, 7)


def digest(ops) -> str:
    sha = hashlib.sha256()
    for op in ops:
        trace = op.run()
        sha.update(f"{op.label} {trace.status.value} {len(trace.points)}\n".encode())
        for point in trace.points:
            sha.update(point.coords.tobytes())
        sha.update(b"".join(float(g).hex().encode() + b" " for g in trace.grad_norms))
        sha.update(b"".join(float(s).hex().encode() + b" " for s in trace.step_norms))
    return sha.hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path[:0] = [str(Path(args[0]).resolve()), str(Path(__file__).resolve().parent.parent / "benchmarks")]
    import workloads

    with tempfile.TemporaryDirectory() as tmpdir:
        for name in WORKLOADS:
            for seed in SEEDS:
                blocks = workloads.WORKLOADS[name].build(seed, Path(tmpdir))
                ops = [op for block in blocks for op in block]
                print(f"{name} seed {seed} ops {len(ops)} {digest(ops)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
