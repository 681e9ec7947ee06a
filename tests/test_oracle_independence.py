"""The rank-scan oracle is one of three independent routes to the selectors,
so ``oracle.py`` must not import the column reduction, the selectors or the
fast-path helpers they share, and the fast path must not import the
oracle's elimination routines."""

import ast
from pathlib import Path

from morseminmax import barannikov, complexes
from morseminmax.barannikov import betti, reduce
from morseminmax.coeff import Coefficients, RATIONALS
from morseminmax.complexes import parse_complex, serialize
from morseminmax.gen import FIXTURE_NAMES, paper_fixture, random_admissible_complex
from morseminmax.oracle import homology, minmax_scan_field, pairs_by_rank
from morseminmax.selector import minmax_field

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "morseminmax"
ORACLE = PACKAGE / "oracle.py"
FAST_PATH = [PACKAGE / name for name in ("barannikov.py", "complexes.py", "selector.py")]

FORBIDDEN = {
    "barannikov",
    "selector",
    "global_index",
    "_reduce_degree",
    "integer_kernel_basis",
    "sparse_columns",
    "sparse_product_columns",
    "back_substitute",
}

# the fast path reaches Smith code only through invariant_factors, on the
# residue of an integer reduction
REFERENCE = {"rank_over", "rank_profile", "_echelon", "smith_normal_form", "_smith",
             "SmithDecomposition", "identity_matrix"}


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


def test_reference_check_sees_a_nested_or_renamed_import():
    source = ("from .coeff import Coefficients, rank_over\n"
              "def f():\n    from .coeff import _echelon as eliminate\n")
    assert imported_names(source) & REFERENCE == {"rank_over", "_echelon"}


def test_fast_path_imports_no_reference_routine():
    for path in FAST_PATH:
        assert imported_names(path.read_text()) & REFERENCE == set(), path.name


def test_oracle_runs_with_the_fast_path_disabled(monkeypatch):
    fields = (Coefficients.prime_field(2), RATIONALS)
    cases = [paper_fixture(name) for name in FIXTURE_NAMES]
    cases += [random_admissible_complex(seed, max_points=16) for seed in range(6)]
    expected = [(reduce(c, field).pair_names(),
                 [betti(c, field, k) for k in range(c.ambient_dim + 1)],
                 minmax_field(c, field))
                for c in cases for field in fields]

    def refuse(*args, **kwargs):
        raise RuntimeError("the oracle reached the fast path")

    monkeypatch.setattr(barannikov, "_reduce_degree", refuse)
    monkeypatch.setattr(complexes, "_homology_data", refuse)
    got = []
    for c in cases:
        fresh = parse_complex(serialize(c), check=False)  # nothing memoized
        for field in fields:
            got.append(({(u.name, l.name) for u, l in pairs_by_rank(fresh, field)},
                        [homology(fresh, field, k).rank
                         for k in range(fresh.ambient_dim + 1)],
                        minmax_scan_field(fresh, field)))
    assert got == expected
