"""Runtime invariants in the package raise real errors: ``assert`` is
stripped under ``python -O``, so no module under src/morseminmax may use it.
And every name the package exports resolves."""

import ast
from pathlib import Path

import morseminmax

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "morseminmax"


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_exported_name_resolves():
    # a stale __all__ entry passes ``import morseminmax`` but breaks
    # ``from morseminmax import *``
    assert [name for name in morseminmax.__all__ if not hasattr(morseminmax, name)] == []
    exec("from morseminmax import *", {})
