"""Every name the package exports has a caller outside the tests: another
module of the package, a demo, the benchmark harness or the README.  Only
`covariance` reads the factor's matrix.  No test file imports another, nor conftest."""

import ast
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


def test_only_covariance_reads_the_factor_matrix():
    # the rest of the package and the demos read the factor through `apply`,
    # `adjoint` and `rank`, so a factor with no M x P matrix can stand in for it
    readers = [f"{path.name}:{i}"
               for path in (*(ROOT / "src" / "condfield").glob("*.py"),
                            *(ROOT / "demos").glob("*.py"))
               if path.name != "covariance.py"
               for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
               if re.search(r"\.modes\b", line)]
    assert readers == []


def test_no_test_file_imports_a_test_module_or_conftest():
    # what the tests share lives in tests/shared.py; fixtures reach a test through pytest
    imports = [f"{path.name}:{node.lineno}"
               for path in sorted((ROOT / "tests").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for name in ([node.module or ""] if isinstance(node, ast.ImportFrom)
                            else [alias.name for alias in node.names])
               if name.split(".")[0] == "conftest" or name.startswith("test_")]
    assert imports == []
