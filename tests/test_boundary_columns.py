"""The boundary is stored as sparse columns inside ``complexes``; the dense
matrix is a view the reference stack builds on demand. The fast paths must
not build it, only the oracle may read it, and no other module may read the
stored columns directly."""

import ast
import sys
from pathlib import Path

import pytest

from morseminmax.barannikov import reduce, reduce_integer
from morseminmax.coeff import INTEGERS, Coefficients, RATIONALS
from morseminmax.complexes import (
    FilteredComplex,
    change_basis,
    global_index,
    negate,
    parse_complex,
    restrict,
    serialize,
    validate,
)
from morseminmax.errors import NotAdmissibleError
from morseminmax.gen import paper_fixture
from morseminmax.oracle import homology
from morseminmax.selector import selector_report

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "morseminmax"
sys.path.insert(0, str(ROOT / "bench"))

from slides import slid_complex  # noqa: E402


def dense_views(c):
    """Degrees whose dense ``c.matrix`` view has been built."""
    return sorted(key[1] for key in c._cache
                  if key[0] == "morseminmax.complexes.FilteredComplex.matrix")


def shifted_transform(c, k):
    """Identity with one extra entry mixing the lowest point into the highest."""
    n = len(c.points(k))
    return [[int(i == j or (i, j) == (0, n - 1)) for j in range(n)] for i in range(n)]


def two_torsion():
    """H_1 = Z/2: the boundary of b is twice a."""
    return FilteredComplex.build(3, [("a", 1, 0), ("b", 2, 1), ("f", 0, 2)], {"b": {"a": 2}})


@pytest.mark.parametrize("make, admissible", [
    (lambda: paper_fixture("f0"), True),
    (lambda: parse_complex(slid_complex(1, 50).text), True),
    (lambda: paper_fixture("laudenbach"), True),
    (two_torsion, False),
], ids=["f0", "slides201", "laudenbach", "torsion"])
def test_dense_view_stays_off_the_fast_path(make, admissible):
    c = make()
    values = sorted(p.value for p in c.all_points())
    assert validate(c).admissible == admissible
    if admissible:
        global_index(c)
        F2 = Coefficients.prime_field(2)
        for field in (F2, RATIONALS):
            reduce(c, field)
        reduce_integer(c)
        selector_report(c, [INTEGERS, F2, RATIONALS])
        made = [parse_complex(serialize(c)), negate(c),
                restrict(c, values[0] - 1, values[-2] + (values[-1] - values[-2]) / 2),
                change_basis(c, {2: shifted_transform(c, 2)})]
        assert all(dense_views(m) == [] for m in made)
    else:
        with pytest.raises(NotAdmissibleError, match="torsion"):
            global_index(c)
    assert dense_views(c) == []
    homology(c, RATIONALS, 2)
    assert 2 in dense_views(c)


def columns_readers(source: str) -> list[int]:
    """Line numbers of every ``._columns`` attribute access in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "_columns"]


def test_only_complexes_reads_the_stored_columns():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "complexes.py" in modules
    found = [f"{path.name}:{line}" for path in modules if path.name != "complexes.py"
             for line in columns_readers(path.read_text())]
    assert found == []


def test_columns_readers_sees_an_outside_read():
    source = (PACKAGE / "barannikov.py").read_text()
    assert columns_readers(source + "\ndef peek(c, k):\n    return c._columns[k]\n")


def matrix_readers(source: str) -> list[int]:
    """Line numbers of every ``.matrix(...)`` call in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "matrix"]


def test_only_the_oracle_reads_the_dense_view():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "oracle.py" in modules
    found = [f"{path.name}:{line}" for path in modules if path.name != "oracle.py"
             for line in matrix_readers(path.read_text())]
    assert found == []


def test_matrix_readers_sees_an_outside_read():
    source = (PACKAGE / "barannikov.py").read_text()
    assert matrix_readers(source + "\ndef peek(c, k):\n    return c.matrix(k + 1)\n")


def cache_readers(source: str) -> list[int]:
    """Line numbers of every access to a memo store, ``._cache`` or the
    shared ``._frame``, in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in ("_cache", "_frame")]


def test_only_complexes_touches_the_memo_store():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "complexes.py" in modules
    found = [f"{path.name}:{line}" for path in modules if path.name != "complexes.py"
             for line in cache_readers(path.read_text())]
    assert found == []


def test_cache_readers_sees_an_outside_read():
    source = (PACKAGE / "oracle.py").read_text()
    assert cache_readers(source + "\ndef peek(c):\n    return c._cache.get('rank')\n")
    assert cache_readers(source + "\ndef peek(c):\n    return c._frame.get('rank')\n")
