"""Write every report of the byte-identity grid into one directory.

Usage:

    python3 tools/report_grid.py SRC OUTDIR

SRC is the ``src`` directory of a checkout; its ``geonewton`` package is
imported and run in process. The grid is order, lemma1, lemma2, taylor and
newton in CSV and JSON at seeds 0-3, on the circle sphere:2 (d = 1, a
one-entry Hessian), sphere:3, sphere:10 and sphere:20 (d = 19, past the
complex-step Hessian crossover of newton_run, so its Newton runs read the
FD Hessian) under exp, projection and perturbed and on so3 under exp and
cayley, then rate in CSV and JSON on each newton JSON report, newton in
JSON at seed 0 with an early stop (``--max-iter 1`` ends ``max_iter`` on
every combo; ``--tol 1e-4`` ends ``converged`` on every combo in fewer
iterations than the default run, after one on so3), and order, lemma1,
lemma2 and taylor at an over-long scale ladder, each of which fails at its
1e200 scale. Eight lemma1 runs under the perturbed retraction fail to
invert a retracted point: on sphere:3, sphere:10 and sphere:20 at a ladder
that starts outside the retraction's range (on sphere:2 that ladder
inverts), on sphere:2 at seeds 1 and 3 in both formats, and on sphere:3 at
seed 14. One lemma1 run under cayley on so3 fails the point check of
R_p(1e6 w). The 16 rate reports on so3 exit 1 with "insufficient usable
error pairs": the last of the three errors of those Newton runs is about
1e-15, below the fit's 1e-13 floor, which leaves one usable pair. Last, a
default order report is written over a longer one at the same path, so the
grid holds a report that overwrote an older one.
Each invocation leaves its report (if it wrote one) and a ``.log`` file
with its exit code, stdout and stderr.

Reports echo their output path, so the invocations run inside OUTDIR with
relative paths: two checkouts give byte-identical grids exactly when every
report, exit code and message is the same. Compare them with ``diff -r``.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

COMBOS = (
    ("sphere:2", "exp"), ("sphere:2", "projection"), ("sphere:2", "perturbed"),
    ("sphere:3", "exp"), ("sphere:3", "projection"), ("sphere:3", "perturbed"),
    ("sphere:10", "exp"), ("sphere:10", "projection"), ("sphere:10", "perturbed"),
    ("sphere:20", "exp"), ("sphere:20", "projection"), ("sphere:20", "perturbed"),
    ("so3", "exp"), ("so3", "cayley"),
)
COMMANDS = ("order", "lemma1", "lemma2", "taylor", "newton")
SEEDS = range(4)
FORMATS = ("csv", "json")
OVERLONG_SCALES = "1e200,1e-2"
OUT_OF_RANGE_SCALES = "3,1e-2"  # the perturbed R_p(3 w) cannot be inverted back to the anchor
EARLY_STOPS = (("maxiter", ["--max-iter", "1"]), ("tol", ["--tol", "1e-4"]))
LONG_SCALES = ",".join(f"{2.0 ** -k:g}" for k in range(1, 25))  # 24 scales, against the default 11


def invocations():
    """(file stem, argv) for every grid invocation, newton before its rate."""
    for manifold, family in COMBOS:
        tag = f"{manifold.replace(':', '')}_{family}"
        for seed in SEEDS:
            for command in COMMANDS:
                for fmt in FORMATS:
                    stem = f"{command}_{tag}_s{seed}_{fmt}"
                    yield stem, [command, "--manifold", manifold, "--retraction", family,
                                 "--seed", str(seed), "--format", fmt, "--output", f"{stem}.{fmt}"]
            for fmt in FORMATS:
                stem = f"rate_{tag}_s{seed}_{fmt}"
                yield stem, ["rate", f"newton_{tag}_s{seed}_json.json", "--format", fmt, "--output", f"{stem}.{fmt}"]
        for name, flags in EARLY_STOPS:
            stem = f"newton_{tag}_{name}"
            yield stem, ["newton", "--manifold", manifold, "--retraction", family,
                         *flags, "--format", "json", "--output", f"{stem}.json"]
        for command in ("order", "lemma2", "lemma1", "taylor"):
            stem = f"{command}_{tag}_overlong"
            yield stem, [command, "--manifold", manifold, "--retraction", family,
                         "--scales", OVERLONG_SCALES, "--output", f"{stem}.csv"]
        if family == "perturbed":
            stem = f"lemma1_{tag}_out_of_range"
            yield stem, ["lemma1", "--manifold", manifold, "--retraction", family,
                         "--scales", OUT_OF_RANGE_SCALES, "--output", f"{stem}.csv"]
    stem = "lemma1_sphere3_perturbed_s14"  # a seed whose perturbed lemma1 sweep fails to invert
    yield stem, ["lemma1", "--retraction", "perturbed", "--seed", "14", "--output", f"{stem}.csv"]
    stem = "lemma1_so3_cayley_not_orthogonal"  # R_p(1e6 w) fails the Cayley kernel's point check
    yield stem, ["lemma1", "--manifold", "so3", "--retraction", "cayley", "--scales", "1e6,1e-2",
                 "--output", f"{stem}.csv"]
    # the same output path twice: the default report is shorter than the long-ladder one it overwrites
    yield "order_overwrite_long", ["order", "--scales", LONG_SCALES, "--output", "order_overwrite.csv"]
    yield "order_overwrite", ["order", "--output", "order_overwrite.csv"]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, outdir = os.path.abspath(args[0]), args[1]
    sys.path.insert(0, src)
    from geonewton import cli

    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    for stem, command in invocations():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(command)
        with open(f"{stem}.log", "w", encoding="utf-8") as fh:
            fh.write(f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
