"""Write reference_slopes.json: the summary slope of every verify-suite sweep
op (order, lemma1, lemma2, taylor) for every combo and every seed of the
pool, as the program computes it.

The file pins the values of the commit it was generated at, and the
verify-suite checks later commits against it. Regenerate it only when a
change to those values is intended and explained.

    python3 benchmarks/make_reference.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # as run.py pins the workers

from geonewton import cli  # noqa: E402
from geonewton.errors import GeonewtonError  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    slopes = {}
    (ROOT / ".bench_results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_results") as tmp:
        for manifold, family in workloads.COMBOS:
            for command in workloads.SWEEP_COMMANDS:
                values = []
                for seed in range(workloads.SEED_POOL):
                    cfg = cli.ExperimentConfig(
                        command=command, manifold=manifold, retraction=family, seed=seed,
                        output=os.path.join(tmp, "report.json"), fmt="json",
                    )
                    try:
                        report, code = cli.run_experiment(cfg)
                    except GeonewtonError as exc:
                        # a known failure of the program; kept, so that the
                        # benchmark expects it instead of skipping the seed
                        values.append({"error": type(exc).__name__})
                        continue
                    if code != 0:
                        raise SystemExit(f"{command} {manifold} {family} seed {seed}: exit code {code}")
                    values.append(report.summary["slope"])
                slopes[workloads.reference_key(manifold, family, command)] = values
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    doc = {"commit": commit, "seeds": workloads.SEED_POOL, "slopes": slopes}
    workloads.REFERENCE_FILE.write_text(json.dumps(doc, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
