"""Each demo script, and README's Python quick start, runs to the end and
prints its report."""

from pathlib import Path
import re
import runpy

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


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


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    assert float(capsys.readouterr().out) >= 0.0
    assert not any(tmp_path.iterdir())
