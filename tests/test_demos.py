"""Each demo script runs to the end and prints its report."""

from pathlib import Path
import runpy

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "demo_profile",
    "demo_concentration_sweep",
    "demo_derivative_conditioning",
])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
    assert not any(tmp_path.iterdir())
