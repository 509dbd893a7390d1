"""The early stops of tools/report_grid.py stop where its docstring says."""

import importlib.util
import json
from pathlib import Path

import pytest

from geonewton import cli

GRID_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_grid.py"
_spec = importlib.util.spec_from_file_location("report_grid", GRID_PATH)
report_grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_grid)


def newton_summary(tmp_path, manifold, family, flags):
    out = tmp_path / "n.json"
    cli.main(["newton", "--manifold", manifold, "--retraction", family, *flags,
              "--format", "json", "--output", str(out)])
    return json.loads(out.read_text())["summary"]


@pytest.mark.parametrize("manifold,family", report_grid.COMBOS)
def test_early_stops_stop_before_the_default_run(tmp_path, manifold, family):
    stops = dict(report_grid.EARLY_STOPS)
    default = newton_summary(tmp_path, manifold, family, [])
    max_iter = newton_summary(tmp_path, manifold, family, stops["maxiter"])
    tol = newton_summary(tmp_path, manifold, family, stops["tol"])
    assert default["status"] == "converged"
    assert max_iter["status"] == "max_iter"
    assert tol["status"] == "converged" and tol["iterations"] < default["iterations"]
