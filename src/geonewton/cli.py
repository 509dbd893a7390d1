"""Command-line front end for the measurement harness.

Subcommands
-----------
order    distance between a retraction and the exponential map over a scale
         ladder; the fitted slope estimates the retraction order + 1
newton   a Newton run from a seeded start near the objective's optimum
lemma1   decay of |grad + Hess v| walking into a critical point
lemma2   deviation of retracted distances from tangent distances
taylor   cubic remainder of the second-order expansion of J o R_p
rate     contraction rate of an existing newton JSON report

Every command is deterministic in its seed: rerunning with identical flags
produces byte-identical report files.  Exit codes: 0 success, 1 measurement
failure (non-converged run, unusable rate data), 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass


from . import __version__
from .errors import GeonewtonError, InsufficientDataError
from .manifolds import Manifold, Rotations3, Sphere
from .newton import NewtonConfig, NewtonStatus, newton_run
from .objectives import ProcrustesTrace
from .rates import (
    DEFAULT_NOISE_FLOOR,
    DEFAULT_SCALES,
    ScaleSweep,
    critical_residual_rows,
    distance_deviation_rows,
    fit_rows,
    rate_from_errors,
    retraction_order_rows,
    taylor_remainder_rows,
)
from .retractions import FAMILIES, RetractionSpec
from .reports import Report, report_from_json
from .sampling import (
    random_point,
    random_tangent,
    rayleigh_top_eigenvector,
    rng_for,
    seeded_instance,
)

ORDER_DIRECTIONS = 5
NEWTON_START_DIST = 0.05


class UsageError(Exception):
    pass


@dataclass
class ExperimentConfig:
    command: str
    manifold: str = "sphere:3"
    retraction: str = "exp"
    objective: str | None = None
    seed: int = 0
    scales: tuple[float, ...] = DEFAULT_SCALES
    tol: float = 1e-12
    max_iter: int = 50
    output: str | None = None
    fmt: str = "csv"
    trace_path: str | None = None

    def manifold_obj(self) -> Manifold:
        name = self.manifold
        if name == "so3":
            return Rotations3()
        if name.startswith("sphere:"):
            try:
                n = int(name.split(":", 1)[1])
            except ValueError:
                raise UsageError(f"bad manifold spec {name!r}") from None
            if n < 2:
                raise UsageError("sphere dimension must be >= 2")
            return Sphere(n)
        raise UsageError(f"unknown manifold {name!r} (expected sphere:<n> or so3)")

    def retraction_spec(self) -> RetractionSpec:
        return RetractionSpec(self.retraction)

    def objective_obj(self):
        manifold = self.manifold_obj()
        kind = self.objective or ("procrustes" if isinstance(manifold, Rotations3) else "rayleigh")
        if kind == "rayleigh":
            if not isinstance(manifold, Sphere):
                raise UsageError("rayleigh objective needs a sphere manifold")
            return seeded_instance(self.seed, "rayleigh", manifold.ambient_dim)
        if kind == "procrustes":
            if not isinstance(manifold, Rotations3):
                raise UsageError("procrustes objective needs the so3 manifold")
            return seeded_instance(self.seed, "procrustes")
        raise UsageError(f"unknown objective {kind!r}")

    def echo(self, columns, extra=None) -> dict:
        out = {
            "command": self.command,
            "format": self.fmt,
            "output": self.output,
            "columns": list(columns),
        }
        for key in COMMANDS[self.command][1]:
            out[key] = getattr(self, "trace_path" if key == "trace" else key)
        if extra:
            out.update(extra)
        return out


def _parse_scales(text: str) -> tuple[float, ...]:
    try:
        scales = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad --scales value {text!r}") from None
    if not scales or any(s <= 0 for s in scales):
        raise UsageError("scales must be positive")
    if any(a <= b for a, b in zip(scales, scales[1:])):
        raise UsageError("scales must be strictly decreasing")
    return scales


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geonewton",
        description="Measurement harness for Newton iteration on embedded manifolds.",
    )
    parser.add_argument("--version", action="version", version=f"geonewton {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, objective=False, solver=False, scales=True):
        p.add_argument("--manifold", default="sphere:3", help="sphere:<n> or so3 (default sphere:3)")
        p.add_argument("--retraction", default="exp", choices=FAMILIES,
                       help="retraction family (default exp)")
        if objective:
            p.add_argument("--objective", default=None, choices=["rayleigh", "procrustes"],
                           help="seeded objective kind (default matches the manifold)")
        p.add_argument("--seed", type=int, default=0, help="instance seed (default 0)")
        if scales:
            p.add_argument("--scales", default=None,
                           help="comma list of decreasing scales (default 2^-2..2^-12)")
        if solver:
            p.add_argument("--tol", type=float, default=1e-12,
                           help="gradient-norm stopping tolerance (default 1e-12)")
            p.add_argument("--max-iter", type=int, default=50,
                           help="iteration budget (default 50)")
        p.add_argument("--output", default=None,
                       help="report path (default <command>_report.<format>)")
        p.add_argument("--format", dest="fmt", default="csv", choices=["csv", "json"],
                       help="report format (default csv)")

    common(sub.add_parser("order", help="estimate a retraction's order against the exponential map"))
    common(sub.add_parser("newton", help=f"Newton run from a seeded start at distance {NEWTON_START_DIST} from the optimum"),
           objective=True, solver=True, scales=False)
    common(sub.add_parser("lemma1", help="residual decay of the linearized gradient at a critical point; the scale column holds |v|"),
           objective=True)
    common(sub.add_parser("lemma2", help="second-order deviation of retracted distances from tangent distances"))
    common(sub.add_parser("taylor", help="cubic remainder of the second-order expansion"), objective=True)

    rate = sub.add_parser("rate", help="contraction rate of an existing newton JSON report")
    rate.add_argument("trace", help="path to a JSON report produced by the newton command")
    rate.add_argument("--output", default=None)
    rate.add_argument("--format", dest="fmt", default="csv", choices=["csv", "json"])
    return parser


def parse_config(argv) -> ExperimentConfig:
    ns = build_parser().parse_args(argv)
    cfg = ExperimentConfig(command=ns.command)
    for name in ("manifold", "retraction", "objective", "seed", "tol", "max_iter", "fmt", "output"):
        if hasattr(ns, name):
            value = getattr(ns, name)
            if value is not None or name in ("objective", "output"):
                setattr(cfg, name, value)
    if getattr(ns, "scales", None) is not None:
        cfg.scales = _parse_scales(ns.scales)
    if ns.command == "rate":
        cfg.trace_path = ns.trace
    if cfg.output is None:
        cfg.output = f"{cfg.command}_report.{cfg.fmt}"
    if cfg.command != "rate":
        cfg.retraction_spec().validate_for(cfg.manifold_obj())
    if cfg.seed < 0:
        raise UsageError("seed must be a nonnegative integer")
    if hasattr(ns, "objective"):  # the commands that draw an objective take --objective
        cfg.objective_obj()  # validates the pairing early
    return cfg


def _run_order(cfg: ExperimentConfig) -> tuple[Report, int]:
    manifold = cfg.manifold_obj()
    rng = rng_for(cfg.seed)
    p = random_point(manifold, rng)
    directions = tuple(random_tangent(p, rng) for _ in range(ORDER_DIRECTIONS))
    sweep = ScaleSweep(directions=directions, scales=cfg.scales)
    rows = retraction_order_rows(cfg.retraction_spec(), sweep)
    est = fit_rows(rows)
    summary = asdict(est)
    summary["estimated_order"] = est.slope - 1.0 if not est.saturated else None
    columns = ("direction_id", "scale", "distance")
    config = cfg.echo(columns, {"n_directions": ORDER_DIRECTIONS})
    return Report(config=config, rows=tuple(rows), summary=summary, version=__version__), 0


def _optimum(objective):
    """The analytic critical point the seeded experiments aim for."""
    return objective.polar_factor() if isinstance(objective, ProcrustesTrace) else rayleigh_top_eigenvector(objective)


def _noncritical_point(objective, manifold, rng):
    while True:
        p = random_point(manifold, rng)
        if objective.analytic_gradient(p).norm() > 0.1:
            return p


def _run_sweep_command(cfg: ExperimentConfig) -> tuple[Report, int]:
    manifold = cfg.manifold_obj()
    spec = cfg.retraction_spec()
    rng = rng_for(cfg.seed)

    if cfg.command == "lemma1":
        objective = cfg.objective_obj()
        sweep = ScaleSweep(directions=(random_tangent(_optimum(objective), rng),), scales=cfg.scales)
        raw = critical_residual_rows(objective, spec, sweep)
    elif cfg.command == "lemma2":
        p = random_point(manifold, rng)
        v_dir = random_tangent(p, rng)
        w_dir = random_tangent(p, rng)
        raw = distance_deviation_rows(spec, v_dir, w_dir, cfg.scales)
    else:  # taylor
        objective = cfg.objective_obj()
        p = _noncritical_point(objective, manifold, rng)
        sweep = ScaleSweep(directions=(random_tangent(p, rng),), scales=cfg.scales)
        raw = taylor_remainder_rows(objective, spec, sweep)

    rows = tuple((x, y) for _, x, y in raw)
    est = fit_rows(raw)
    columns = ("scale", "measured_value")
    report = Report(
        config=cfg.echo(columns, {"noise_floor": DEFAULT_NOISE_FLOOR}),
        rows=rows,
        summary=asdict(est),
        version=__version__,
    )
    return report, 0


def _run_newton(cfg: ExperimentConfig) -> tuple[Report, int]:
    manifold = cfg.manifold_obj()
    spec = cfg.retraction_spec()
    objective = cfg.objective_obj()
    rng = rng_for(cfg.seed)
    p_star = _optimum(objective)
    p0 = manifold.exp_map(random_tangent(p_star, rng).scaled(NEWTON_START_DIST))
    trace = newton_run(objective, NewtonConfig(retraction=spec, tol=cfg.tol, max_iter=cfg.max_iter), p0)

    rows = []
    for k, point in enumerate(trace.points):
        rows.append((
            k,
            trace.grad_norms[k],
            trace.step_norms[k - 1] if k > 0 else 0.0,
            manifold.geodesic_distance(point, p_star),
        ))
    summary = {
        "status": trace.status.value,
        "iterations": trace.iterations,
        "final_grad_norm": trace.grad_norms[-1],
        "final_dist_to_pstar": rows[-1][3],
        "start_dist": NEWTON_START_DIST,
    }
    columns = ("iter", "grad_norm", "step_norm", "dist_to_pstar")
    report = Report(config=cfg.echo(columns), rows=tuple(rows), summary=summary, version=__version__)
    return report, 0 if trace.status == NewtonStatus.CONVERGED else 1


def _run_rate(cfg: ExperimentConfig) -> tuple[Report, int]:
    try:
        with open(cfg.trace_path, "rb") as fh:
            source = report_from_json(fh.read())
    except OSError as exc:
        raise OSError(f"cannot read trace file {cfg.trace_path!r}: {exc}") from exc
    try:
        dist_col = source.columns.index("dist_to_pstar")
    except ValueError:
        raise UsageError("trace file has no dist_to_pstar column; run `newton --format json` first") from None
    errors = [row[dist_col] for row in source.rows]
    columns = ("pair_index", "err_from", "err_to", "pair_slope")
    try:
        rate = rate_from_errors(errors)
    except InsufficientDataError:
        rows, summary, code = (), {"error": "insufficient usable error pairs"}, 1
    else:
        rows = tuple((k, a, b, slope) for k, ((a, b), slope) in enumerate(zip(rate.pairs, rate.pair_slopes)))
        summary = {
            "fitted_rate": rate.fitted_rate,
            "fitted_constant": rate.fitted_constant,
            "pairs_used": rate.pairs_used,
        }
        code = 0
    report = Report(
        config=cfg.echo(columns, {"noise_floor": DEFAULT_NOISE_FLOOR}),
        rows=rows,
        summary=summary,
        version=__version__,
    )
    return report, code


_INSTANCE_KEYS = ("manifold", "retraction", "seed")
# command: (runner, the config keys its report echoes after command, format,
# output and columns)
COMMANDS = {
    "order": (_run_order, _INSTANCE_KEYS + ("scales",)),
    "newton": (_run_newton, _INSTANCE_KEYS + ("objective", "tol", "max_iter")),
    "lemma1": (_run_sweep_command, _INSTANCE_KEYS + ("objective", "scales")),
    "lemma2": (_run_sweep_command, _INSTANCE_KEYS + ("scales",)),
    "taylor": (_run_sweep_command, _INSTANCE_KEYS + ("objective", "scales")),
    "rate": (_run_rate, ("trace",)),
}


def run_experiment(cfg: ExperimentConfig) -> tuple[Report, int]:
    """Execute one configured command and write its report to disk."""
    if cfg.command not in COMMANDS:
        raise UsageError(f"unknown command {cfg.command!r}")
    report, code = COMMANDS[cfg.command][0](cfg)
    with open(cfg.output, "wb") as fh:
        fh.write(report.to_bytes(cfg.fmt))
    return report, code


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = parse_config(list(argv))
    except (UsageError, GeonewtonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, code = run_experiment(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except GeonewtonError as exc:
        print(f"measurement failed: {exc}", file=sys.stderr)
        return 1
    for key, value in report.summary.items():
        print(f"{key}: {value}")
    print(f"wrote {cfg.output}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
