"""geonewton benchmark.

Drives the library from outside, through its public API, on three workloads
(defined, with the reasons for each, in workloads.py):

  newton-fd      newton_run under exp and projection on sphere:10/20, with A
                 scaled by 1e-3, 1 and 1e3; the time is finite-difference probes
  newton-order1  newton_run under the order-1 perturbed retraction on
                 sphere:3 and sphere:10; the time is tangent_basis
  verify-suite   the CLI commands order, lemma1, lemma2, taylor, newton and rate
                 in process, on sphere:3 and so3, writing JSON and CSV reports

Usage:

  python3 benchmarks/run.py --workload newton-fd --seed 1 --seconds 30 --trace 0
  python3 benchmarks/run.py --all [--seed 1] [--seconds 30] [--trace 0]

Every workload runs in fresh processes, with OpenBLAS, OpenMP and MKL pinned
to one thread. ``--trace 0`` reports the end-to-end metrics: set-up time
(median of five fresh processes), ops per second (median over the run's
blocks), the p90 op time, and peak RSS. ``--trace 1`` reports the per-layer
metrics of a traced pass instead.

Times are scaled to a reference machine speed: a small calibration kernel
(worker.py) runs between ops, and each op's wall time is multiplied by the
kernel's reference time over its time next to the op. On a shared box the
speed swings by up to 2x for seconds to minutes; the raw figures are stored
and printed beside the scaled ones.

Each op's output is checked; ``fail_frac``, ``unconverged_frac`` and the p50
op time are printed and stored but not bounded, because they are 0 or move
with the seed on some workloads. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a full record
with metadata goes to ``.bench_results/``. Only the standard library and the
program (with its numpy) are used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("newton-fd", "newton-order1", "verify-suite")
SETUP_RUNS = 5
DEADLINE_S = 170  # a run must end within 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


class WorkerError(RuntimeError):
    pass


def layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def worker(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON line."""
    env = dict(os.environ, **PINNED)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {' '.join(args)} exceeded {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "geonewton").glob("*.py")))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.monotonic()
    common = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(worker([*common, "--setup-only"], timeout=60)["setup_s"])
    remaining = DEADLINE_S - (time.monotonic() - started)
    main = worker([*common, "--seconds", str(seconds), "--trace", str(trace)], timeout=remaining)
    setups.append(main["setup_s"])

    if trace:
        units = layer_units()
        values = main.pop("per_layer")
        if set(values) != set(units):
            raise WorkerError(f"per-layer metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        main["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": main[k], "unit": unit} for k, unit in END_TO_END}
    correct = main["failed"] == 0 and main["warmup_ok"]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": correct,
        "metrics": metrics,
        "run": main,
        "setup_runs_s": setups,
        "meta": {
            "src_lines": src_lines(),
            "git_commit": git_commit(),
            "python": platform.python_version(),
            "numpy": main.pop("numpy"),
            "blas": main.pop("blas"),
            "ref_kernel_ms": main.pop("ref_kernel_ms"),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "pinned_env": PINNED,
            "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_record(rec: dict) -> None:
    run = rec["run"]
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"({run['attempted']} ops in {run['blocks']} blocks)")
    for name, m in rec["metrics"].items():
        print(f"  {name:55s} {m['value']:14.6g} {m['unit']}")
    print(f"  checks: attempted {run['attempted']}, failed {run['failed']}, "
          f"fail_frac {run['fail_frac']:.4g}, unconverged_frac {run['unconverged_frac']:.4g} "
          f"of {run['newton_ops']} Newton ops, {run['other_critical_points']} at another critical point, "
          f"{run['known_errors']} known errors, op_ms_p50 {run['op_ms_p50']:.4g} ms -> "
          f"{'correct' if rec['correct'] else 'INCORRECT'}")
    for failure in run["failures"]:
        print(f"    failed: {failure}")
    print(f"  calibration kernel {run['kernel_before_ms']:.3f} ms before, {run['kernel_after_ms']:.3f} ms after "
          f"(reference {rec['meta']['ref_kernel_ms']} ms); raw ops_per_s {run['raw_ops_per_s']:.4g}, "
          f"raw op_ms_p90 {run['raw_op_ms_p90']:.4g} ms; src lines {rec['meta']['src_lines']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "geonewton" / "__init__.py").is_file():
        print(f"error: no geonewton sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.all else (args.workload,)
    try:
        records = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        print_record(rec)
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["run"]["attempted"] for r in records),
        "failed": sum(r["run"]["failed"] for r in records),
        "metrics": records[0]["metrics"] if len(records) == 1 else
        {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
