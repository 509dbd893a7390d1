"""One workload in one fresh process; started by run.py, which pins the BLAS
thread pools before this interpreter starts.

Prints one JSON object on its last stdout line. Modes:

--setup-only   import, instance generation and the warm-up op; report the time
(default)      also measure whole blocks of ops, untraced, for --seconds
--trace 1      run a fixed number of blocks twice, untraced then traced, and
               report per-layer metrics instead of end-to-end ones
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
MIN_OPS = 100  # so that at least ten ops lie beyond the p90


def _import_program():
    sys.path.insert(0, str(SRC))
    import geonewton

    if Path(geonewton.__file__).resolve().parent != SRC / "geonewton":
        raise SystemExit(f"geonewton imported from {geonewton.__file__}, not from {SRC}")


# The calibration kernel: small numpy calls inside a Python loop, like the
# program's inner loops. On a shared box the machine's speed changes by up to
# 2x for seconds to minutes at a time; this kernel slows down by nearly the
# same factor as the program's ops (a pure-Python loop slows down less), so
# scaling op time by REF_KERNEL_MS / (kernel time next to it) removes most of
# that noise. REF_KERNEL_MS is the kernel's time on an uncontended 2 GHz Xeon
# (the box the baseline was recorded on); it is a fixed reference, so scaled
# times stay comparable between runs and commits.
REF_KERNEL_MS = 0.55
SAMPLE_EVERY_S = 0.1


def kernel_ms() -> float:
    """Median of three runs of the calibration kernel, in ms."""
    vec = numpy.arange(10.0) / 10.0
    times = []
    for _ in range(3):
        t = time.perf_counter()
        acc = 0.0
        for _ in range(200):
            w = numpy.array(vec)
            w.setflags(write=False)
            acc += float(numpy.dot(w, w)) + float(numpy.linalg.norm(w))
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


class Speed:
    """Kernel samples, taken between ops and, for long ops, inside them.

    Inside an op a sample is taken when ``tangent_basis`` returns (at least
    once per Newton iteration) and at most every SAMPLE_EVERY_S; its run time
    is left out of the op's time. Each stretch of an op between samples is
    scaled by the samples at its two ends.
    """

    def __init__(self):
        self.at: list[float] = []  # kernel start
        self.done: list[float] = []  # kernel end
        self.ms: list[float] = []

    def sample(self) -> None:
        self.at.append(time.perf_counter())
        self.ms.append(kernel_ms())
        self.done.append(time.perf_counter())

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S:
            self.sample()

    @contextlib.contextmanager
    def inside_ops(self):
        """Sample inside ops too, from the manifolds' tangent_basis."""
        from geonewton import manifolds

        originals = [(cls, cls.__dict__["tangent_basis"]) for cls in (manifolds.Sphere, manifolds.Rotations3)]

        def hooked(fn):
            @functools.wraps(fn)
            def tangent_basis(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.sample_if_due()
                return result

            return tangent_basis

        for cls, fn in originals:
            cls.tangent_basis = hooked(fn)
        try:
            yield
        finally:
            for cls, fn in originals:
                cls.tangent_basis = fn

    def _factor(self, before: int, after: int) -> float:
        near = [self.ms[i] for i in (before, after) if 0 <= i < len(self.ms)]
        return REF_KERNEL_MS * len(near) / sum(near)

    def times(self, start: float, end: float) -> tuple[float, float]:
        """(raw, scaled) seconds of the interval, without the kernel runs
        taken inside it."""
        first = bisect.bisect_right(self.at, start)
        after = bisect.bisect_left(self.at, end)
        raw = scaled = 0.0
        seg_start, before = start, first - 1
        for k in range(first, after):
            raw += self.at[k] - seg_start
            scaled += (self.at[k] - seg_start) * self._factor(before, k)
            seg_start, before = self.done[k], k
        raw += end - seg_start
        scaled += (end - seg_start) * self._factor(before, after)
        return raw, scaled

    def factor(self, start: float, end: float) -> float:
        raw, scaled = self.times(start, end)
        return scaled / raw


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_op(op, tracer=None):
    """Time one op: (start, end, result). The output check runs outside the
    timed region."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.root(f"op[{op.label}]"):
                out = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return start, time.perf_counter(), op.check_error(exc)
    end = time.perf_counter()
    return start, end, op.check(out)


def run_pass(ops, speed: Speed, tracer=None):
    """Run ops in order, sampling the machine's speed between them."""
    timed = []
    for op in ops:
        speed.sample_if_due()
        timed.append(run_op(op, tracer))
    speed.sample()
    return timed


def _summary(ops, timed, speed: Speed) -> dict:
    results = [r for _, _, r in timed]
    raw, times = zip(*(speed.times(s, e) for s, e, _ in timed))
    newton = [r for r in results if r.newton]
    failures = [f"{op.label}: {r.reason}" for op, r in zip(ops, results) if not r.ok]
    return {
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures[:10],
        "fail_frac": len(failures) / len(results),
        "known_errors": sum(r.known_error for r in results),
        "other_critical_points": sum(r.other_critical for r in results),
        "newton_ops": len(newton),
        "unconverged_frac": (sum(r.status != "converged" for r in newton) / len(newton)) if newton else 0.0,
        "ops_per_s_mean": len(times) / sum(times),
        "op_ms_p50": 1e3 * quantile(times, 0.5),
        "op_ms_p90": 1e3 * quantile(times, 0.9),
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_ms_p50": 1e3 * quantile(raw, 0.5),
        "raw_op_ms_p90": 1e3 * quantile(raw, 0.9),
        "groups": {
            label: {"ops": len(ts), "ms_p50": 1e3 * quantile(ts, 0.5), "ms_max": 1e3 * max(ts)}
            for label in sorted({op.label for op in ops})
            for ts in [[t for t, op in zip(times, ops) if op.label == label]]
        },
    }


def measure(blocks, seconds: float, speed: Speed) -> dict:
    """Whole blocks until the next one would overrun --seconds (at least
    MIN_OPS ops). Op times are scaled to the reference speed."""
    ops, timed = [], []
    t_start = time.perf_counter()
    done = 0
    with speed.inside_ops():
        while True:
            block = blocks[done % len(blocks)]
            ops += block
            timed += run_pass(block, speed)
            done += 1
            elapsed = time.perf_counter() - t_start
            if len(ops) >= MIN_OPS and elapsed * (done + 1) / done > seconds:
                break
    out = _summary(ops, timed, speed)
    # Throughput is the median over blocks, so that a few ops stalled by the
    # machine (file writes on a shared disk, say) do not move it.
    per_block = len(ops) // done
    out["ops_per_s"] = statistics.median(
        per_block / sum(speed.times(s, e)[1] for s, e, _ in timed[b * per_block:(b + 1) * per_block])
        for b in range(done)
    )
    out.update(blocks=done, measured_s=elapsed, kernel_samples=len(speed.ms),
               kernel_ms_p10_p50_p90=[quantile(speed.ms, q) for q in (0.1, 0.5, 0.9)])
    return out


def trace_run(wl, blocks, seconds: float, speed: Speed, setup_tracer, workload: str, seed: int) -> dict:
    from tracer import LIGHT_TARGETS, Tracer, require_layers

    n_blocks = max(1, round(wl.trace_blocks * seconds / 30))
    ops = [op for b in range(n_blocks) for op in blocks[b % len(blocks)]]

    light = Tracer(LIGHT_TARGETS)
    light.install()
    try:
        plain = run_pass(ops, speed, light)
    finally:
        light.uninstall()
    full = Tracer()
    full.install()
    try:
        traced = run_pass(ops, speed, full)
    finally:
        full.uninstall()

    require_layers(wl.required_layers, setup_tracer, full)
    RESULTS.mkdir(exist_ok=True)
    full.write(RESULTS / f"{workload}-seed{seed}.spans")

    metrics = layer_metrics(ops, plain, full, light, setup_tracer, speed)
    plain_s, traced_s = (sum(speed.times(s, e)[1] for s, e, _ in timed) for timed in (plain, traced))
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    out = _summary(ops + ops, plain + traced, speed)
    out.update(blocks=n_blocks, per_layer=metrics, spans=len(full.start))
    return out


SIZE_FAMILIES = (
    "sphere3.exp", "sphere3.projection", "sphere3.perturbed",
    "sphere10.exp", "sphere10.projection", "sphere10.perturbed",
    "sphere20.exp", "sphere20.projection", "so3.exp", "so3.cayley",
)
FAMILIES = ("exp", "projection", "cayley", "perturbed")
RATES = (
    "fit_loglog", "retraction_order_rows", "critical_residual_rows",
    "distance_deviation_rows", "taylor_remainder_rows", "rate_from_errors",
)
COMMANDS = ("order", "newton", "lemma1", "lemma2", "taylor", "rate")


def layer_metrics(ops, plain, full, light, setup_tracer, speed) -> dict:
    """Per-layer numbers for one pass over ``ops``, normalised per op; times
    are scaled to the reference speed like the end-to-end ones."""
    n = len(ops)
    st, counts = full.totals(speed.factor)
    lt, _ = light.totals(speed.factor)

    def get(name, field="calls", stats=st):
        return stats.get(name, {}).get(field, 0)

    def per_op(name):
        return get(name) / n

    def self_ms(name):
        return 1e3 * get(name, "self_s") / n

    def ratio(a, b):
        return a / b if b else 0.0

    results = [r for _, _, r in plain]
    solves = [r for r in results if r.newton]
    iterations = sum(r.iterations for r in solves)
    op_time = get("op", "incl_s")

    m = {
        "calculus.hessian_fd.calls_per_op": per_op("calculus.hessian_fd"),
        "calculus.hessian_fd.self_ms_per_op": self_ms("calculus.hessian_fd"),
        "calculus.hessian_fd.probes_per_call": ratio(counts["hessian_probes"], get("calculus.hessian_fd")),
        "calculus.hessian_fd.incl_share": ratio(get("calculus.hessian_fd", "incl_s"), op_time),
        "calculus.gradient_fd.calls_per_op": per_op("calculus.gradient_fd"),
        "calculus.gradient_fd.self_ms_per_op": self_ms("calculus.gradient_fd"),
        "calculus.probes_per_iter": ratio(counts["newton_probes"], iterations),
        "objectives.value.calls_per_op": per_op("objectives.value"),
        "objectives.value.self_ms_per_op": self_ms("objectives.value"),
        "manifolds.tangent_basis.calls_per_op": per_op("manifolds.tangent_basis"),
        "manifolds.tangent_basis.self_ms_per_op": self_ms("manifolds.tangent_basis"),
        "manifolds.tangent_basis.calls_per_probe": ratio(get("manifolds.tangent_basis"), counts["probes"]),
        "manifolds.tangent_basis.incl_share": ratio(get("manifolds.tangent_basis", "incl_s"), op_time),
        "manifolds.exp_map.calls_per_op": per_op("manifolds.exp_map"),
        "manifolds.exp_map.self_ms_per_op": self_ms("manifolds.exp_map"),
    }
    for fam in FAMILIES:
        m[f"retractions.retract.{fam}.calls_per_op"] = per_op(f"retractions.retract[{fam}]")
        m[f"retractions.retract.{fam}.self_ms_per_op"] = self_ms(f"retractions.retract[{fam}]")
    m.update({
        "retractions.inverse_retract.calls_per_op": per_op("retractions.inverse_retract"),
        "retractions.inverse_retract.self_ms_per_op": self_ms("retractions.inverse_retract"),
        "retractions.inverse_retract.retracts_per_call": ratio(
            counts["inverse_retracts"], get("retractions.inverse_retract")),
        "newton.iterations_per_solve": ratio(iterations, len(solves)),
        # one gradient check per iterate (iterations + 1 per solve); above 1
        # when the refined re-read fires
        "newton.gradient_reads_per_iter": ratio(counts["newton_gradient_reads"], iterations + len(solves)),
        "newton.wasted_iter_frac": ratio(sum(r.wasted for r in solves), iterations),
    })
    for status in ("converged", "max_iter", "singular_hessian"):
        m[f"newton.status.{status}"] = ratio(sum(r.status == status for r in solves), len(solves))
    m["newton.solve_tangent_system.self_ms_per_op"] = self_ms("newton.solve_tangent_system")
    for name in RATES:
        m[f"rates.{name}.self_ms_per_op"] = self_ms(f"rates.{name}")
    m["reports.to_bytes.self_ms_per_op"] = self_ms("reports.to_bytes")
    m["reports.report_from_json.self_ms_per_op"] = self_ms("reports.report_from_json")
    m["reports.bytes_per_op"] = full.bytes_out / n
    for command in COMMANDS:
        times = [speed.times(s, e)[1] for (s, e, _), op in zip(plain, ops) if op.label == command]
        m[f"cli.{command}.op_ms_p50"] = 1e3 * quantile(times, 0.5) if times else 0.0
    setup_stats, _ = setup_tracer.totals(speed.factor)
    m["sampling.seeded_instance.self_ms"] = 1e3 * setup_stats.get("sampling.seeded_instance", {}).get("self_s", 0.0)

    # per-iteration and per-Hessian wall times from the lightly wrapped pass
    iters_by_key: dict[str, int] = {}
    for (_, _, r), op in zip(plain, ops):
        if r.newton:
            iters_by_key[op.key] = iters_by_key.get(op.key, 0) + r.iterations
    for key in SIZE_FAMILIES:
        run_s = get(f"newton.newton_run[{key}]", "incl_s", lt)
        m[f"newton.ms_per_iter.{key}"] = 1e3 * ratio(run_s, iters_by_key.get(key, 0))
        hess = f"calculus.hessian_fd[{key}]"
        m[f"calculus.hessian_fd.ms_per_call.{key}"] = 1e3 * ratio(get(hess, "incl_s", lt), get(hess, stats=lt))
    return m


def set_up(wl, seed: int, tmpdir: Path, tracer=None):
    """Instance generation and one untimed warm-up op."""
    with tracer.root("setup") if tracer is not None else contextlib.nullcontext():
        blocks = wl.build(seed, tmpdir)
        warm = wl.warmup_op(tmpdir)
        try:
            out = warm.run()
        except Exception as exc:  # reported through the warm-up check
            return blocks, warm.check_error(exc)
    return blocks, warm.check(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    RESULTS.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix="ops-", dir=RESULTS))
    try:
        wl = workloads.WORKLOADS[args.workload]
        setup_tracer = None
        if args.trace:
            from tracer import Tracer

            setup_tracer = Tracer()
            setup_tracer.install()
        try:
            blocks, warm_result = set_up(wl, args.seed, tmpdir, setup_tracer)
        finally:
            if setup_tracer is not None:
                setup_tracer.uninstall()
        raw_setup = time.perf_counter() - _T0
        kernel_before = statistics.median(kernel_ms() for _ in range(11))
        speed = Speed()
        out = {
            "setup_s": raw_setup * REF_KERNEL_MS / kernel_before,
            "raw_setup_s": raw_setup,
            "warmup_ok": warm_result.ok,
            "kernel_before_ms": kernel_before,
            "ref_kernel_ms": REF_KERNEL_MS,
        }
        if not args.setup_only:
            if args.trace:
                out.update(trace_run(wl, blocks, args.seconds, speed, setup_tracer, args.workload, args.seed))
            else:
                out.update(measure(blocks, args.seconds, speed))
            out["kernel_after_ms"] = statistics.median(kernel_ms() for _ in range(11))
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["numpy"] = numpy.__version__
        try:
            blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
            out["blas"] = f"{blas['name']} {blas['version']}"
        except (AttributeError, KeyError):
            out["blas"] = "unknown"
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
