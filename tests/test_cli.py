import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geonewton as gn
from geonewton import cli
from geonewton.reports import report_from_json


def run(argv, cwd):
    """Run the CLI inside tmp_path, returning the exit code."""
    old = os.getcwd()
    os.chdir(cwd)
    try:
        return cli.main(argv)
    finally:
        os.chdir(old)


# ---- parsing


def test_defaults_parse():
    cfg = cli.parse_config(["order", "--manifold", "sphere:3", "--retraction", "projection"])
    assert cfg.command == "order"
    assert cfg.scales == gn.DEFAULT_SCALES
    assert cfg.seed == 0
    assert cfg.fmt == "csv"


def test_invalid_pairing_is_usage_error(tmp_path, capsys):
    assert run(["order", "--manifold", "sphere:3", "--retraction", "cayley"], tmp_path) == 2
    assert "not defined" in capsys.readouterr().err


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.parse_config(["order", "--wat", "1"])
    assert err.value.code == 2


def test_bad_scales_is_usage_error():
    with pytest.raises(cli.UsageError):
        cli.parse_config(["order", "--scales", "0.1,0.2"])
    with pytest.raises(cli.UsageError):
        cli.parse_config(["order", "--scales", "0.1,abc"])
    for scales in ("inf,1", "nan", "1,nan", "1,-inf"):  # a non-finite scale used to fail mid-sweep
        with pytest.raises(cli.UsageError, match="finite"):
            cli.parse_config(["lemma2", "--scales", scales])


def test_objective_manifold_mismatch_is_usage_error(tmp_path):
    assert run(["newton", "--objective", "procrustes", "--manifold", "sphere:3"], tmp_path) == 2
    assert run(["newton", "--objective", "rayleigh", "--manifold", "so3"], tmp_path) == 2


def test_parse_newton_flags():
    cfg = cli.parse_config(["newton", "--objective", "rayleigh", "--seed", "42", "--tol", "1e-12"])
    assert cfg.seed == 42
    assert cfg.tol == 1e-12
    assert cfg.objective == "rayleigh"


@pytest.mark.parametrize("flags", [["--tol", "nan"], ["--tol", "-1"], ["--max-iter", "0"]])
def test_bad_solver_flag_is_usage_error(tmp_path, capsys, flags):
    assert run(["newton", *flags, "--output", "n.csv"], tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "n.csv").exists()


# ---- the command table


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_unset_flags_keep_config_defaults(command):
    positionals = ["t.json"] if command == "rate" else []
    cfg = cli.parse_config([command, *positionals])
    assert cfg == cli.ExperimentConfig(
        command=command,
        output=f"{command}_report.csv",
        trace_path="t.json" if command == "rate" else None,
    )


def test_empty_output_is_kept():
    assert cli.parse_config(["order", "--output", ""]).output == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "t.json", "--manifold", "so3"],
        ["order", "--objective", "rayleigh"],
        ["lemma2", "--tol", "1e-9"],
        ["newton", "--scales", "0.5,0.25"],
    ],
)
def test_flag_outside_the_commands_row_exits_2(tmp_path, capsys, argv):
    assert run(argv, tmp_path) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_command_help_exits_0(tmp_path, capsys, command):
    assert run([command, "--help"], tmp_path) == 0
    assert capsys.readouterr().out.startswith(f"usage: geonewton {command} ")


# ---- order command


def test_order_row_count(tmp_path):
    scales = ",".join(str(2.0 ** (-k)) for k in range(2, 12))
    code = run(
        ["order", "--retraction", "projection", "--scales", scales, "--output", "o.csv"],
        tmp_path,
    )
    assert code == 0
    lines = (tmp_path / "o.csv").read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert len(data) == 1 + 50  # header + 10 scales x 5 directions


def test_order_summary_band(tmp_path):
    code = run(
        ["order", "--retraction", "projection", "--seed", "3", "--format", "json",
         "--output", "o.json"], tmp_path,
    )
    assert code == 0
    report = report_from_json((tmp_path / "o.json").read_bytes())
    assert 2.8 <= report.summary["slope"] <= 3.2
    assert report.summary["estimated_order"] == pytest.approx(report.summary["slope"] - 1.0)


def test_order_exponential_saturates(tmp_path):
    run(["order", "--retraction", "exp", "--format", "json", "--output", "e.json"], tmp_path)
    report = report_from_json((tmp_path / "e.json").read_bytes())
    assert report.summary["saturated"] is True
    assert report.summary["slope"] is None


# ---- determinism and round trips


@pytest.mark.parametrize(
    "argv",
    [
        ["order", "--retraction", "projection", "--seed", "9"],
        ["newton", "--objective", "rayleigh", "--seed", "9", "--tol", "1e-9"],
        ["lemma1", "--retraction", "perturbed", "--seed", "9"],
        ["lemma2", "--retraction", "projection", "--seed", "9"],
        ["taylor", "--retraction", "exp", "--seed", "9"],
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reports_are_byte_deterministic(tmp_path, argv, fmt):
    out = tmp_path / f"r.{fmt}"
    assert run(argv + ["--format", fmt, "--output", str(out)], tmp_path) == 0
    first = out.read_bytes()
    assert run(argv + ["--format", fmt, "--output", str(out)], tmp_path) == 0
    assert out.read_bytes() == first


def test_rate_command_deterministic(tmp_path):
    trace = tmp_path / "t.json"
    run(["newton", "--seed", "4", "--tol", "1e-9", "--format", "json", "--output", str(trace)], tmp_path)
    out = tmp_path / "rate.json"
    assert run(["rate", str(trace), "--format", "json", "--output", str(out)], tmp_path) == 0
    first = out.read_bytes()
    assert run(["rate", str(trace), "--format", "json", "--output", str(out)], tmp_path) == 0
    assert out.read_bytes() == first


def test_json_round_trip(tmp_path):
    out = tmp_path / "o.json"
    run(["order", "--retraction", "perturbed", "--format", "json", "--output", str(out)], tmp_path)
    report = report_from_json(out.read_bytes())
    assert report_from_json(report.to_json_bytes()) == report


def test_summary_matches_refit_of_rows(tmp_path):
    out = tmp_path / "o.json"
    run(["order", "--retraction", "projection", "--seed", "5", "--format", "json",
         "--output", str(out)], tmp_path)
    report = report_from_json(out.read_bytes())
    xs = [row[1] for row in report.rows]
    ys = [row[2] for row in report.rows]
    refit = gn.fit_loglog(xs, ys, floor=1e-13)
    assert abs(refit.slope - report.summary["slope"]) <= 1e-12
    assert abs(refit.intercept - report.summary["intercept"]) <= 1e-12


def test_taylor_without_an_anchor_point_fails_in_seconds(tmp_path):
    # On the circle a Rayleigh gradient norm never exceeds the eigenvalue gap,
    # which is at most 0.1 at seed 56, so no draw can anchor the sweep: the
    # command must end (exit 1, "measurement failed", no report), not redraw
    # forever.  A subprocess with a timeout turns a hang into a failure.
    matrix = gn.seeded_instance(56, "rayleigh", 2).matrix
    assert np.ptp(np.linalg.eigvalsh(matrix)) <= 0.1
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = ["taylor", "--manifold", "sphere:2", "--seed", "56", "--output", "t.csv"]
    proc = subprocess.run([sys.executable, "-m", "geonewton", *argv], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("measurement failed: no point with gradient norm above 0.1")
    assert not (tmp_path / "t.csv").exists()
    assert run(["taylor", "--manifold", "sphere:2", "--seed", "57", "--output", "t.csv"], tmp_path) == 0


def test_lemma_commands_self_consistent(tmp_path):
    for command, retraction in (("lemma1", "perturbed"), ("lemma2", "exp"), ("taylor", "exp")):
        out = tmp_path / f"{command}.json"
        code = run([command, "--retraction", retraction, "--seed", "6", "--format", "json",
                    "--output", str(out)], tmp_path)
        assert code == 0
        report = report_from_json(out.read_bytes())
        assert report.columns == ("scale", "measured_value")
        refit = gn.fit_loglog(
            [r[0] for r in report.rows],
            [r[1] for r in report.rows],
            floor=report.config["noise_floor"],
        )
        if report.summary["saturated"]:
            assert refit.saturated
        else:
            assert abs(refit.slope - report.summary["slope"]) <= 1e-12


def test_lemma1_perturbed_band(tmp_path):
    out = tmp_path / "l1.json"
    code = run(["lemma1", "--retraction", "perturbed", "--seed", "1", "--format", "json",
                "--output", str(out)], tmp_path)
    assert code == 0
    report = report_from_json(out.read_bytes())
    assert 1.8 <= report.summary["slope"] <= 2.2


# ---- newton and rate behavior


def test_newton_converged_exit_zero(tmp_path):
    out = tmp_path / "n.json"
    code = run(["newton", "--seed", "4", "--tol", "1e-9", "--format", "json",
                "--output", str(out)], tmp_path)
    assert code == 0
    report = report_from_json(out.read_bytes())
    assert report.summary["status"] == "converged"
    assert report.columns == ("iter", "grad_norm", "step_norm", "dist_to_pstar")


def test_newton_budget_exhaustion_exit_one(tmp_path):
    code = run(["newton", "--seed", "4", "--max-iter", "1", "--output", "n.csv"], tmp_path)
    assert code == 1


@pytest.mark.parametrize("family", ["exp", "projection", "perturbed"])
def test_newton_sphere50_converges_exit_zero(tmp_path, family):
    # The complex-step gradient read has no finite-difference floor, so at
    # sphere:50 it falls below --tol within a few iterations.
    for seed in range(5):
        out = tmp_path / f"n{seed}.json"
        code = run(["newton", "--manifold", "sphere:50", "--retraction", family, "--seed", str(seed),
                    "--format", "json", "--output", str(out)], tmp_path)
        assert code == 0
        report = report_from_json(out.read_bytes())
        assert report.summary["status"] == "converged"
        assert report.summary["iterations"] <= 8
        assert report.summary["final_dist_to_pstar"] <= 1e-9


def test_rate_of_stalled_trace_fits_its_rows(tmp_path, monkeypatch, fd_only):
    # the seeded Rayleigh read by finite differences, whose floor stalls the run
    monkeypatch.setattr(cli, "seeded_instance", lambda *args: fd_only(gn.seeded_instance(*args)))
    trace = tmp_path / "t.json"
    code = run(["newton", "--manifold", "sphere:10", "--retraction", "perturbed", "--seed", "4",
                "--format", "json", "--output", str(trace)], tmp_path)
    assert code == 1
    source = report_from_json(trace.read_bytes())
    assert source.summary["status"] == "stalled"
    out = tmp_path / "rate.json"
    assert run(["rate", str(trace), "--format", "json", "--output", str(out)], tmp_path) == 0
    dists = [row[source.columns.index("dist_to_pstar")] for row in source.rows]
    expected = gn.rate_from_errors(dists, gn.DEFAULT_NOISE_FLOOR).fitted_rate
    assert report_from_json(out.read_bytes()).summary["fitted_rate"] == expected


def test_newton_procrustes_cayley(tmp_path):
    out = tmp_path / "p.json"
    code = run(["newton", "--manifold", "so3", "--retraction", "cayley", "--seed", "2",
                "--tol", "1e-9", "--format", "json", "--output", str(out)], tmp_path)
    assert code == 0
    report = report_from_json(out.read_bytes())
    assert report.summary["final_dist_to_pstar"] <= 1e-8


def test_rate_recovers_quadratic_contraction(tmp_path):
    trace = tmp_path / "t.json"
    run(["newton", "--retraction", "perturbed", "--seed", "4", "--tol", "1e-7",
         "--format", "json", "--output", str(trace)], tmp_path)
    out = tmp_path / "rate.json"
    assert run(["rate", str(trace), "--format", "json", "--output", str(out)], tmp_path) == 0
    report = report_from_json(out.read_bytes())
    assert report.summary["pairs_used"] >= 2


def test_rate_insufficient_pairs_exit_one(tmp_path):
    trace = tmp_path / "t.json"
    run(["newton", "--seed", "4", "--max-iter", "1", "--format", "json",
         "--output", str(trace)], tmp_path)
    assert run(["rate", str(trace), "--output", "r.csv"], tmp_path) == 1


# a newton JSON report, edited so that it is no longer one rate can read
TRACE_EDITS = {
    "json_list": lambda payload: [1, 2],
    "null_distance": lambda payload: {**payload, "rows": [[*row[:3], None] for row in payload["rows"]]},
    "missing_field": lambda payload: {key: payload[key] for key in ("config", "rows", "version")},
    "true_distance": lambda payload: {**payload, "rows": [[*row[:3], True] for row in payload["rows"]]},
    "huge_int_distance": lambda payload: {**payload, "rows": [[*row[:3], 10**400] for row in payload["rows"]]},
}


@pytest.mark.parametrize("case", ["newton_csv", *TRACE_EDITS])
def test_rate_unreadable_trace_is_usage_error(tmp_path, capsys, case):
    trace = tmp_path / "t.json"
    fmt = "csv" if case == "newton_csv" else "json"
    assert run(["newton", "--seed", "4", "--tol", "1e-9", "--format", fmt, "--output", str(trace)], tmp_path) == 0
    if case in TRACE_EDITS:
        trace.write_text(json.dumps(TRACE_EDITS[case](json.loads(trace.read_text()))))
    capsys.readouterr()
    assert run(["rate", str(trace), "--output", "r.csv"], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


def test_rate_missing_file_exit_three(tmp_path):
    assert run(["rate", "missing.json", "--output", "r.csv"], tmp_path) == 3


def test_output_io_error_exit_three(tmp_path):
    code = run(["order", "--output", str(tmp_path / "no_dir" / "o.csv")], tmp_path)
    assert code == 3


# ---- writing over an existing report

LONG_LADDER = ",".join(str(2.0 ** -k) for k in range(1, 25))


def long_then_default(tmp_path, fmt):
    """Write the default order report, then a longer one over it, at one path.

    Returns the path and the default report's bytes (a report echoes its path).
    """
    out = tmp_path / f"o.{fmt}"
    assert run(["order", "--format", fmt, "--output", str(out)], tmp_path) == 0
    new = out.read_bytes()
    assert run(["order", "--scales", LONG_LADDER, "--format", fmt, "--output", str(out)], tmp_path) == 0
    assert len(out.read_bytes()) > len(new)
    return out, new


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_shorter_report_overwrites_longer_exactly(tmp_path, fmt):
    out, new = long_then_default(tmp_path, fmt)
    assert run(["order", "--format", fmt, "--output", str(out)], tmp_path) == 0
    assert out.read_bytes() == new


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_output_to_dev_null_exits_zero(tmp_path, monkeypatch):
    assert run(["order", "--output", "/dev/null"], tmp_path) == 0
    real_fstat = os.fstat  # a device that reports a size is still not cut (it cannot be)
    monkeypatch.setattr(cli.os, "fstat", lambda fd: os.stat_result((*real_fstat(fd)[:6], 10**6, *real_fstat(fd)[7:])))
    assert run(["order", "--output", "/dev/null"], tmp_path) == 0


def test_failed_write_leaves_no_old_bytes(tmp_path, capsys, monkeypatch):
    out, new = long_then_default(tmp_path, "csv")
    real_write, calls = os.write, []

    def write_half_then_fail(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(fd, data[: len(data) // 2])

    monkeypatch.setattr(cli.os, "write", write_half_then_fail)
    capsys.readouterr()
    assert run(["order", "--output", str(out)], tmp_path) == 3
    assert capsys.readouterr().err == f"i/o error: [Errno {errno.ENOSPC}] No space left on device\n"
    assert len(calls) == 2
    assert out.read_bytes() == new[: len(new) // 2]


@pytest.mark.parametrize("argv,code", [(["order"], 0), (["newton", "--max-iter", "1"], 1)], ids=["order", "newton"])
def test_closed_stdout_keeps_the_exit_code_without_a_traceback(tmp_path, argv, code):
    # The reader of stdout is gone before the summary is printed (as in
    # `geonewton order | (exec 0<&-; sleep 1)`): the report is still written,
    # the command's own exit code comes back, and stderr stays empty.
    out = tmp_path / "report.csv"
    argv = [*argv, "--output", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "geonewton", *argv], stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (code, "")
    report, expected = cli.run_experiment(cli.parse_config(argv))
    assert expected == code and out.read_bytes() == report.to_bytes("csv")


def test_new_report_has_the_mode_of_a_plain_open(tmp_path):
    with open(tmp_path / "plain", "wb"):
        pass
    assert run(["order", "--output", str(tmp_path / "o.csv")], tmp_path) == 0
    assert (tmp_path / "o.csv").stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_csv_floats_round_trip(tmp_path):
    out = tmp_path / "o.csv"
    run(["order", "--retraction", "projection", "--seed", "8", "--output", str(out)], tmp_path)
    json_out = tmp_path / "o.json"
    run(["order", "--retraction", "projection", "--seed", "8", "--format", "json",
         "--output", str(json_out)], tmp_path)
    report = report_from_json(json_out.read_bytes())
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    parsed = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
    for got, want in zip(parsed, report.rows):
        assert got[1] == want[1] and got[2] == want[2]


def test_lemma1_at_a_scale_near_pi_reports_the_cut_locus(tmp_path, capsys):
    # R_p(3.14159 w) lies 2.7e-6 from the antipode of the anchor, where the
    # sphere's log cannot return a tangent vector
    argv = ["lemma1", "--manifold", "sphere:3", "--retraction", "exp", "--scales", "3.14159,1e-2"]
    assert run(argv, tmp_path) == 1
    assert "cut locus" in capsys.readouterr().err
