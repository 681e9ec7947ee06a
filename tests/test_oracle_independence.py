"""The rank-scan oracle is one of three independent routes to the selectors,
so ``oracle.py`` must not import the column reduction, the selectors or the
fast-path helpers they share."""

import ast
from pathlib import Path

ORACLE = Path(__file__).resolve().parent.parent / "src" / "morseminmax" / "oracle.py"

FORBIDDEN = {
    "barannikov",
    "selector",
    "_reduce_degree",
    "integer_kernel_basis",
    "sparse_columns",
    "sparse_product_columns",
}


def imported_names(source: str) -> set[str]:
    """Every module path component and every name an import statement binds."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


def test_imported_names_sees_every_import_form():
    source = ("import morseminmax.selector\n"
              "from .barannikov import reduce\n"
              "from . import coeff\n"
              "def f():\n    from .coeff import sparse_columns as sc\n")
    assert imported_names(source) & FORBIDDEN == {"selector", "barannikov", "sparse_columns"}


def test_oracle_imports_no_fast_path():
    assert imported_names(ORACLE.read_text()) & FORBIDDEN == set()
