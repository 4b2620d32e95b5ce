"""Every name the package exports has a caller outside the tests: another
module of the package, a demo, the benchmark harness or the README."""

import re
import types
from pathlib import Path

import pytest

import condfield

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [
    *(p for p in sorted((ROOT / "src" / "condfield").glob("*.py")) if p.name != "__init__.py"),
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "README.md",
]
EXPORTED = sorted(name for name, value in vars(condfield).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType))


def _references(name: str) -> list:
    use = re.compile(rf"\b{name}\b")
    definition = re.compile(rf"^(?:(?:def|class)\s+{name}\b|{name}\s*=)")
    return [f"{path.name}:{i}"
            for path in SOURCES
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if use.search(line) and not definition.match(line)]


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_name_has_a_caller_outside_tests(name):
    assert _references(name), f"condfield.{name} is used only by tests"
