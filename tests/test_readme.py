"""The README's "Library tour" code block runs as printed: its Newton run
converges and its fitted contraction rate is quadratic."""

import re
from pathlib import Path

import geonewton as gn

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_tour() -> str:
    match = re.search(r"^## Library tour\n\n```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert match, "README has no python block under '## Library tour'"
    return match.group(1)


def test_readme_library_tour_runs(capsys):
    namespace = {}
    exec(compile(_library_tour(), str(README), "exec"), namespace)
    assert namespace["trace"].status == gn.NewtonStatus.CONVERGED
    assert 1.8 <= namespace["rate"].fitted_rate <= 2.2
    assert capsys.readouterr().out.startswith("NewtonStatus.CONVERGED ")
