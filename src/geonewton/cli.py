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

``COMMANDS`` gives each subcommand one row: its runner, the config fields it
takes (flags from ``FLAGS``, echoed in its report) and its ``--help`` line.

Every command is deterministic in its seed: rerunning with identical flags
produces byte-identical report files.  Exit codes: 0 success, 1 measurement
failure (non-converged run, unusable rate data), 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .errors import ContractError, GeonewtonError, InsufficientDataError
from .manifolds import Manifold, Rotations3, Sphere
from .newton import NewtonConfig, NewtonStatus, newton_run
from .objectives import ProcrustesTrace
from .rates import (
    DEFAULT_NOISE_FLOOR,
    DEFAULT_SCALES,
    ScaleSweep,
    checked_scales,
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

    def newton_config(self) -> NewtonConfig:
        return NewtonConfig(retraction=RetractionSpec(self.retraction), tol=self.tol, max_iter=self.max_iter)

    def echo(self, columns, extra=None) -> dict:
        out = {"command": self.command, "columns": list(columns)}
        for key in COMMANDS[self.command][1]:  # under the name argparse gives its flag
            out[FLAGS[key][0].lstrip("-").replace("-", "_")] = getattr(self, key)
        out.update(extra or {})
        return out


def _parse_scales(text: str) -> tuple[float, ...]:
    try:
        return checked_scales(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"bad --scales value {text!r}") from None
    except ContractError as exc:
        raise UsageError(str(exc)) from None


# ExperimentConfig field: (its flag, or its positional's name; argparse
# keywords), in --help order.  A flag left unset keeps the field's default.
FLAGS = {
    "trace_path": ("trace", {"help": "path to a JSON report produced by the newton command"}),
    "manifold": ("--manifold", {"help": "sphere:<n> or so3 (default sphere:3)"}),
    "retraction": ("--retraction", {"choices": FAMILIES, "help": "retraction family (default exp)"}),
    "objective": ("--objective", {"choices": ["rayleigh", "procrustes"],
                                  "help": "seeded objective kind (default matches the manifold)"}),
    "seed": ("--seed", {"type": int, "help": "instance seed (default 0)"}),
    "scales": ("--scales", {"type": _parse_scales, "help": "comma list of decreasing scales (default 2^-2..2^-12)"}),
    "tol": ("--tol", {"type": float, "help": "gradient-norm stopping tolerance (default 1e-12)"}),
    "max_iter": ("--max-iter", {"type": int, "help": "iteration budget (default 50)"}),
    "output": ("--output", {"help": "report path (default <command>_report.<format>)"}),
    "fmt": ("--format", {"choices": ["csv", "json"], "help": "report format (default csv)"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geonewton", description="Measurement harness for Newton iteration on embedded manifolds.")
    parser.add_argument("--version", action="version", version=f"geonewton {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys, text) in COMMANDS.items():
        p = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for key, (flag, kwargs) in FLAGS.items():
            if key in keys and flag.startswith("-"):
                p.add_argument(flag, dest=key, **kwargs)
            elif key in keys:
                p.add_argument(key, metavar=flag, **kwargs)
    return parser


def parse_config(argv) -> ExperimentConfig:
    cfg = ExperimentConfig(**vars(build_parser().parse_args(argv)))
    if cfg.output is None:
        cfg.output = f"{cfg.command}_report.{cfg.fmt}"
    keys = COMMANDS[cfg.command][1]
    if "retraction" in keys:
        RetractionSpec(cfg.retraction).validate_for(cfg.manifold_obj())
    if cfg.seed < 0:
        raise UsageError("seed must be a nonnegative integer")
    if "objective" in keys:
        cfg.objective_obj()  # validates the pairing early
    if "tol" in keys:
        cfg.newton_config()  # validates the solver flags early
    return cfg


def _run_order(cfg: ExperimentConfig) -> tuple[Report, int]:
    manifold = cfg.manifold_obj()
    rng = rng_for(cfg.seed)
    p = random_point(manifold, rng)
    directions = tuple(random_tangent(p, rng) for _ in range(ORDER_DIRECTIONS))
    sweep = ScaleSweep(directions=directions, scales=cfg.scales)
    rows = retraction_order_rows(RetractionSpec(cfg.retraction), sweep)
    est = fit_rows(rows)
    summary = asdict(est)
    summary["estimated_order"] = est.slope - 1.0 if not est.saturated else None
    config = cfg.echo(("direction_id", "scale", "distance"), {"n_directions": ORDER_DIRECTIONS})
    return Report(config=config, rows=tuple(rows), summary=summary, version=__version__), 0


def _optimum(objective):
    """The analytic critical point the seeded experiments aim for."""
    return objective.polar_factor() if isinstance(objective, ProcrustesTrace) else rayleigh_top_eigenvector(objective)


def _sweep_report(cfg: ExperimentConfig, raw) -> tuple[Report, int]:
    """Report of a one-direction sweep: (scale, value) rows and their fit."""
    config = cfg.echo(("scale", "measured_value"), {"noise_floor": DEFAULT_NOISE_FLOOR})
    return Report(config=config, rows=tuple((x, y) for _, x, y in raw), summary=asdict(fit_rows(raw)),
                  version=__version__), 0


def _run_lemma1(cfg: ExperimentConfig) -> tuple[Report, int]:
    rng = rng_for(cfg.seed)
    objective = cfg.objective_obj()
    sweep = ScaleSweep(directions=(random_tangent(_optimum(objective), rng),), scales=cfg.scales)
    return _sweep_report(cfg, critical_residual_rows(objective, RetractionSpec(cfg.retraction), sweep))


def _run_lemma2(cfg: ExperimentConfig) -> tuple[Report, int]:
    rng = rng_for(cfg.seed)
    p = random_point(cfg.manifold_obj(), rng)
    v_dir, w_dir = random_tangent(p, rng), random_tangent(p, rng)
    return _sweep_report(cfg, distance_deviation_rows(RetractionSpec(cfg.retraction), v_dir, w_dir, cfg.scales))


def _run_taylor(cfg: ExperimentConfig) -> tuple[Report, int]:
    rng = rng_for(cfg.seed)
    objective = cfg.objective_obj()
    manifold = cfg.manifold_obj()
    p = random_point(manifold, rng)
    while objective.analytic_gradient(p).norm() <= 0.1:  # stay away from critical points
        p = random_point(manifold, rng)
    sweep = ScaleSweep(directions=(random_tangent(p, rng),), scales=cfg.scales)
    return _sweep_report(cfg, taylor_remainder_rows(objective, RetractionSpec(cfg.retraction), sweep))


def _run_newton(cfg: ExperimentConfig) -> tuple[Report, int]:
    manifold = cfg.manifold_obj()
    objective = cfg.objective_obj()
    rng = rng_for(cfg.seed)
    p_star = _optimum(objective)
    p0 = manifold.exp_map(random_tangent(p_star, rng).scaled(NEWTON_START_DIST))
    trace = newton_run(objective, cfg.newton_config(), p0)
    dists = manifold.distance_many(np.array([point.coords for point in trace.points]), p_star.coords).tolist()
    rows = tuple(zip(range(len(dists)), trace.grad_norms, (0.0,) + trace.step_norms, dists))
    summary = {
        "status": trace.status.value,
        "iterations": trace.iterations,
        "final_grad_norm": trace.grad_norms[-1],
        "final_dist_to_pstar": dists[-1],
        "start_dist": NEWTON_START_DIST,
    }
    columns = ("iter", "grad_norm", "step_norm", "dist_to_pstar")
    report = Report(config=cfg.echo(columns), rows=rows, summary=summary, version=__version__)
    return report, 0 if trace.status == NewtonStatus.CONVERGED else 1


def _run_rate(cfg: ExperimentConfig) -> tuple[Report, int]:
    try:
        with open(cfg.trace_path, "rb") as fh:
            source = report_from_json(fh.read())
    except OSError as exc:
        raise OSError(f"cannot read trace file {cfg.trace_path!r}: {exc}") from exc
    except ContractError as exc:
        raise UsageError(f"cannot use trace file {cfg.trace_path!r}: {exc}") from None
    if "dist_to_pstar" not in source.columns:
        raise UsageError("trace file has no dist_to_pstar column; run `newton --format json` first")
    column = source.columns.index("dist_to_pstar")
    errors = [row[column] for row in source.rows]
    if not all(isinstance(e, (int, float)) for e in errors):
        raise UsageError("trace file has a dist_to_pstar entry that is not a number")
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
    config = cfg.echo(columns, {"noise_floor": DEFAULT_NOISE_FLOOR})
    return Report(config=config, rows=rows, summary=summary, version=__version__), code


_INSTANCE = ("manifold", "retraction", "seed")
_REPORT = ("output", "fmt")
# command: (runner, the FLAGS it takes and its report echoes, its --help line)
COMMANDS = {
    "order": (_run_order, _INSTANCE + ("scales",) + _REPORT,
              "estimate a retraction's order against the exponential map"),
    "newton": (_run_newton, _INSTANCE + ("objective", "tol", "max_iter") + _REPORT,
               f"Newton run from a seeded start at distance {NEWTON_START_DIST} from the optimum"),
    "lemma1": (_run_lemma1, _INSTANCE + ("objective", "scales") + _REPORT,
               "residual decay of the linearized gradient at a critical point; the scale column holds |v|"),
    "lemma2": (_run_lemma2, _INSTANCE + ("scales",) + _REPORT,
               "second-order deviation of retracted distances from tangent distances"),
    "taylor": (_run_taylor, _INSTANCE + ("objective", "scales") + _REPORT,
               "cubic remainder of the second-order expansion"),
    "rate": (_run_rate, ("trace_path",) + _REPORT, "contraction rate of an existing newton JSON report"),
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
    try:
        cfg = parse_config(argv)  # argparse reads sys.argv[1:] when argv is None
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
