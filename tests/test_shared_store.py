"""The shared store: value-free results serve every complex that differs only
in its critical values.

``perturb_values`` and ``negate`` make complexes that share a store with
another; every other operation gives fresh stores. A value-free result must
read no ``.value`` and hold no point, so it equals what a fresh store would
compute on any complex that shares the store.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from morseminmax import barannikov, certify, complexes, selector
from morseminmax.barannikov import reduce_integer
from morseminmax.coeff import INTEGERS, RATIONALS, Coefficients
from morseminmax.complexes import (
    CriticalPoint,
    FilteredComplex,
    _conjugate,
    change_basis,
    negate,
    parse_complex,
    restrict,
    serialize,
    validate,
)
from morseminmax.gen import (
    FIXTURE_NAMES,
    min_value_gap,
    paper_fixture,
    perturb_values,
    random_admissible_complex,
)
from morseminmax.selector import maxmin_int, minmax_field, minmax_int, selector_report

from helpers import AMBIENT, INVALID_FIVE_POINTS, written_complexes

FIELDS = (Coefficients.prime_field(2), Coefficients.prime_field(3), RATIONALS)

VALUE_FREE = {f"{fn.__module__}.{fn.__qualname__}": fn for fn in (
    complexes._homology_data,
    complexes._admissibility,
    complexes._negated_frame,
    certify._structural_defects,
    barannikov._integer_reduction,
    barannikov._integer_outcome,
    selector._minmax_int_index,
)}


def sibling(c, seed=0):
    """A perturbed copy of c, with eps a quarter of the value gap as fuzz sizes it."""
    gap = min_value_gap(c)
    return perturb_values(c, gap / 4 if gap is not None else Fraction(1), seed)


def fresh(c):
    """c with fresh stores and the same stored form."""
    return FilteredComplex(c.ambient_dim, {k: c.points(k) for k in c.degrees()},
                           {k: c.columns(k) for k in c.degrees()},
                           {k: c.ranks(k) for k in c.degrees()})


def points_in(entry):
    """Every CriticalPoint reachable from a stored entry."""
    if isinstance(entry, CriticalPoint):
        yield entry
    elif isinstance(entry, dict):
        for pair in entry.items():
            yield from points_in(pair)
    elif isinstance(entry, (tuple, list, set, frozenset)):
        for item in entry:
            yield from points_in(item)
    elif dataclasses.is_dataclass(entry):
        yield from points_in([getattr(entry, f.name) for f in dataclasses.fields(entry)])


def without_store(name, entry):
    """An entry with the shared store of a negation, its last item, dropped:
    a store is not a result."""
    return entry[:-1] if name.endswith("._negated_frame") else entry


def assert_shared_entries_recompute(c, moved):
    """Every entry in the stores of c and its negation is value-free and is
    what a fresh store computes on the sibling ``moved`` and its negation."""
    for x, other in ((c, moved), (negate(c), negate(moved))):
        assert other._frame is x._frame
        assert {key[0] for key in x._frame} <= VALUE_FREE.keys()
        for (name, *args), entry in x._frame.items():
            assert next(points_in(entry), None) is None, name
            got = VALUE_FREE[name](fresh(other), *args)
            assert without_store(name, got) == without_store(name, entry), name


@settings(max_examples=60)
@given(st.one_of(st.sampled_from(FIXTURE_NAMES).map(paper_fixture),
                 st.integers(0, 10**6).map(lambda seed: random_admissible_complex(seed, 30))),
       st.integers(0, 100))
def test_every_shared_entry_is_what_a_sibling_computes_afresh(c, shift):
    selector_report(c, (INTEGERS, *FIELDS))
    assert_shared_entries_recompute(c, sibling(c, shift))


def check_located_defects(points, boundaries, shift):
    """Validate a complex and its negation, then compare their stores, the
    located defects included, with a sibling's fresh ones. The sibling has
    every value moved by ``shift``, which keeps ties, so that a complex with
    tied values has one too."""
    c = FilteredComplex.build(AMBIENT, points, boundaries)
    for x in (c, negate(c)):
        validate(x)
    moved = c._revalued({k: tuple(CriticalPoint(p.name, k, p.value + shift)
                                  for p in c.points(k)) for k in c.degrees()})
    assert_shared_entries_recompute(c, moved)
    return c


@pytest.mark.parametrize("shift", [Fraction(1, 3), 1, -7])
def test_located_defects_of_an_invalid_complex_are_what_a_sibling_computes(shift):
    c = check_located_defects(*INVALID_FIVE_POINTS, shift)
    assert any(certify._structural_defects(c))


@settings(max_examples=100)
@given(written_complexes(), st.fractions(min_value=-2, max_value=2).filter(bool))
def test_located_defects_of_written_complexes_are_what_a_sibling_computes(case, shift):
    check_located_defects(*case[1:], shift)


def test_value_free_names_cover_the_shared_store():
    c = random_admissible_complex(3, max_points=30)
    selector_report(c, (INTEGERS, *FIELDS))
    negate(negate(c))
    names = {key[0] for x in (c, negate(c)) for key in x._frame}
    assert names == VALUE_FREE.keys()


def test_siblings_and_negations_share_stores():
    c = random_admissible_complex(21, max_points=30)
    moved = sibling(c, 5)
    assert moved._frame is c._frame and moved._cache is not c._cache
    assert negate(moved)._frame is negate(c)._frame
    assert negate(moved)._columns is negate(c)._columns
    assert negate(moved) != negate(c)
    assert [-p.value for p in negate(moved).all_points()][::-1] == [
        p.value for p in moved.all_points()]
    values = sorted(p.value for p in c.all_points())
    copies = [negate(negate(c)), parse_complex(serialize(c)),
              restrict(c, values[0] - 1, values[-1] + 1), _conjugate(c, {}),
              change_basis(c, {})]
    assert all(x == c for x in copies)
    built = FilteredComplex.build(c.ambient_dim,
                                  [(p.name, p.degree, p.value) for p in c.all_points()])
    for x in copies + [built]:
        assert x._frame is not c._frame and x._frame is not negate(c)._frame


def test_a_sibling_reads_its_own_points_and_values():
    c = paper_fixture("f0")
    before = (minmax_int(c), maxmin_int(c), reduce_integer(c).form.pairs)
    moved = sibling(c, 9)
    assert moved.all_points() != c.all_points()
    mm, sm = minmax_int(moved), maxmin_int(moved)
    assert mm == (moved.point(mm[1].name).value, moved.point(mm[1].name))
    assert sm == (moved.point(sm[1].name).value, moved.point(sm[1].name))
    assert (mm[1].name, sm[1].name) == (before[0][1].name, before[1][1].name)
    form = reduce_integer(moved).form
    assert all(p is moved.point(p.name) for pair in form.pairs for p in pair)
    assert all(p is moved.point(p.name) for p in form.free)
    assert [(u.name, m.name) for u, m in form.pairs] == [
        (u.name, m.name) for u, m in before[2]]
    laudenbach = paper_fixture("laudenbach")
    reduce_integer(laudenbach)
    obstructed = sibling(laudenbach, 2)
    witness = reduce_integer(obstructed).column
    assert witness is obstructed.point(witness.name)


def test_a_sibling_reduces_and_verifies_nothing_again(monkeypatch):
    c = random_admissible_complex(58, max_points=30)
    selector_report(c, (INTEGERS, *FIELDS))
    calls = []
    real_reduce, real_verify = barannikov._reduce_degree, certify._verify_normal_form
    monkeypatch.setattr(barannikov, "_reduce_degree",
                        lambda *a: calls.append("reduce") or real_reduce(*a))
    monkeypatch.setattr(selector, "_reduce_degree",
                        lambda *a: calls.append("reduce") or real_reduce(*a))
    monkeypatch.setattr(barannikov, "_verify_normal_form",
                        lambda *a: calls.append("verify") or real_verify(*a))
    moved = sibling(c, 1)
    minmax_int(moved), maxmin_int(moved)
    for field in FIELDS:
        minmax_field(moved, field)
    assert calls == []
    selector_report(fresh(moved), (INTEGERS, *FIELDS))
    assert "reduce" in calls and "verify" in calls
