"""The benchmark harness in perfbench/ patches and calls the library by name;
every name it uses must still resolve in the package."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import condfield

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    # only the tables are read: spans.install would rewrap the package for
    # every later test
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
TARGETS = [(mod, qual) for table in (spans.SPANS, spans.COUNTED_METHODS)
           for mod, quals in table.items() for qual in quals]


@pytest.mark.parametrize("mod, qual", TARGETS, ids=[".".join(t) for t in TARGETS])
def test_traced_name_resolves(mod, qual):
    assert mod in spans.MODULES
    module = importlib.import_module(f"condfield.{mod}")
    if "." in qual:
        cls_name, meth = qual.split(".")
        assert callable(getattr(getattr(module, cls_name), meth))
    else:
        # install wraps only functions defined in the module itself
        fn = getattr(module, qual)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_worker_setup_names_resolve():
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    setup = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "run_setup")
    names = {node.attr for node in ast.walk(setup) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "cf"}
    assert {"make_grid", "assemble", "sqrt_factor", "constants"} <= names
    assert [name for name in sorted(names) if not hasattr(condfield, name)] == []
