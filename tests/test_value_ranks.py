"""Critical values are compared once, in ``FilteredComplex.build``.

``build`` sorts every point by (value, name) in one exact pass and stores an
integer rank per point, equal exactly for equal values and ordered as they
are; every later order or tie test reads the ranks. The references here are
written from ``Fraction``s, independently of the ranks.
"""

import ast
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from morseminmax import certify
from morseminmax.barannikov import reduce, reduce_integer
from morseminmax.coeff import Coefficients
from morseminmax.complexes import (
    CriticalPoint,
    FilteredComplex,
    Violation,
    change_basis,
    negate,
    parse_complex,
    parse_value,
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

from helpers import AMBIENT, INVALID_FIVE_POINTS, assert_ranks_follow_values, written_complexes

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from slides import slid_complex  # noqa: E402

ORACLE = ROOT / "src" / "morseminmax" / "oracle.py"
COMPARISONS = ("__lt__", "__le__", "__gt__", "__ge__", "__eq__")


# -- build's input checks and value conversion --------------------------------

def test_build_names_the_first_name_in_input_order_that_repeats():
    with pytest.raises(ValueError) as exc:
        FilteredComplex.build(2, [("a", 0, 0), ("b", 1, 1), ("b", 1, 2), ("a", 0, 3)])
    assert str(exc.value) == "duplicate point name 'a'"


def test_build_finds_a_last_duplicate_among_200000_names_in_linear_time():
    names = [f"p{i}" for i in range(199_999)] + ["p199998"]
    start = time.process_time()
    with pytest.raises(ValueError) as exc:
        FilteredComplex.build(1, [(name, 0, 0) for name in names])
    assert str(exc.value) == "duplicate point name 'p199998'"
    # a count per name takes minutes here; one pass takes well under a second
    assert time.process_time() - start < 10


def test_build_keeps_fraction_values_and_converts_every_other_type():
    half = Fraction(1, 2)
    c = FilteredComplex.build(1, [("a", 0, half), ("b", 0, 2), ("c", 1, "-7/3")])
    assert c.point("a").value is half
    assert [(type(p.value), p.value) for p in c.all_points()] == [
        (Fraction, Fraction(-7, 3)), (Fraction, half), (Fraction, 2)]


@pytest.mark.parametrize("tok, value", [
    ("12", Fraction(12)), ("-3", Fraction(-3)), ("0", Fraction(0)), ("6/4", Fraction(3, 2)),
    ("-2/1", Fraction(-2)), ("0/5", Fraction(0)), (str(2**70), Fraction(2**70)),
])
def test_parse_value_reads_integers_and_fractions(tok, value):
    got = parse_value(tok)
    assert type(got) is Fraction and got == value
    assert (got.numerator, got.denominator) == (value.numerator, value.denominator)


# -- no value comparison after parsing ----------------------------------------

def _count_comparisons(monkeypatch):
    """Patch every Fraction comparison to record its name in the returned list."""
    calls = []
    for name in COMPARISONS:
        def counted(self, other, _compare=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _compare(self, other)
        monkeypatch.setattr(Fraction, name, counted)
    return calls


def _parsed_inputs():
    """Freshly parsed complexes, so nothing is memoized on them yet."""
    made = [paper_fixture(name) for name in FIXTURE_NAMES]
    made += [random_admissible_complex(seed) for seed in range(12)]
    texts = [serialize(c) for c in made]
    texts += [slid_complex(seed, q).text for seed, q in ((0, 3), (1, 10), (2, 25))]
    return [parse_complex(text, check=False) for text in texts]


def test_the_counter_sees_every_comparison(monkeypatch):
    calls = _count_comparisons(monkeypatch)
    a, b = Fraction(1, 2), Fraction(2, 3)
    assert (a < b, a <= b, a > b, a >= b, a == b, a != b) == (True, True, False, False, False, True)
    assert calls == ["__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__eq__"]


def test_no_value_comparison_after_parsing(monkeypatch):
    complexes = _parsed_inputs()
    fields = [Coefficients.prime_field(p) for p in (2, 3)]
    calls = _count_comparisons(monkeypatch)
    for c in complexes:
        for cx in (c, negate(c), negate(negate(c))):
            assert validate(cx).ok
            cx.all_points()
            reduce_integer(cx)
            for field in fields:
                reduce(cx, field)
    assert calls == []


def test_oracle_reads_no_rank():
    """The oracle orders points by its own reading of ``c.points(k)``; the
    ranks and the order built from them (``all_points``) stay off its route."""
    rank_readers = {"ranks", "_ranks", "_value_order", "all_points"}

    def names(source):
        nodes = list(ast.walk(ast.parse(source)))
        return ({n.attr for n in nodes if isinstance(n, ast.Attribute)}
                | {n.id for n in nodes if isinstance(n, ast.Name)})

    assert names("x = c.ranks(k)\ny = c.all_points()") >= {"ranks", "all_points"}
    assert names(ORACLE.read_text()) & rank_readers == set()


# -- ranks are exact ----------------------------------------------------------

def reference_violations(points, boundaries):
    """``_violations``'s findings, computed from the input Fractions."""
    order = sorted(points, key=lambda t: (t[2], t[0]))
    value = {name: v for name, _, v in points}
    degrees = sorted({d for _, d, _ in points})
    found = [Violation("bad_degree", f"{n} has degree {d}, ambient {AMBIENT}")
             for n, d, _ in order if not 0 <= d <= AMBIENT]
    found += [Violation("duplicate_value", f"{a} and {b} share value {va}")
              for (a, _, va), (b, _, vb) in zip(order, order[1:]) if va == vb]
    for n, _, v in sorted(order, key=lambda t: t[1]):  # by degree, then as in ``order``
        for t in sorted(boundaries.get(n, {}), key=lambda t: (value[t], t)):
            if v <= value[t]:
                found.append(Violation(
                    "ascent_violation", f"boundary of {n} (value {v}) hits {t} (value {value[t]})"))
    for k in degrees:
        if k - 1 not in degrees or k + 1 not in degrees:
            continue
        for n, d, _ in points:
            if d != k + 1:
                continue
            square = {}
            for t, a in boundaries.get(n, {}).items():
                for s, b in boundaries.get(t, {}).items():
                    square[s] = square.get(s, 0) + a * b
            if any(square.values()):
                found.append(Violation("dd_nonzero",
                                       f"boundary squared is nonzero from degree {k + 1}"))
                break
    return tuple(found)


def stated(c):
    """(points, boundaries) of c, name-keyed as :func:`reference_violations`
    reads them."""
    return ([(p.name, p.degree, p.value) for p in c.all_points()],
            {p.name: {q.name: v for v, q in c.boundary_chain(p.name)} for p in c.all_points()})


def _derived(c, rng):
    """Every derived complex of ``c``: both negations, a window, a basis
    change and, where the values are distinct, a perturbation."""
    yield negate(c)
    yield negate(negate(c))
    values = sorted({p.value for p in c.all_points()})
    cuts = [values[0] - 1] + [(a + b) / 2 for a, b in zip(values, values[1:])] + [values[-1] + 1]
    lo, hi = sorted(rng.sample(range(len(cuts)), 2))
    yield restrict(c, cuts[lo], cuts[hi])
    transforms = {k: [[rng.choice((1, -1)) if i == j else rng.randint(-2, 2) * (i < j)
                       for j in range(len(c.points(k)))] for i in range(len(c.points(k)))]
                  for k in c.degrees()}
    yield change_basis(c, transforms)
    gap = min_value_gap(c)
    if gap != 0:
        yield perturb_values(c, gap / 3 if gap else Fraction(1), rng.randrange(100))


@given(written_complexes())
def test_a_file_assembles_as_build_assembles_its_points(case):
    text, points, boundaries = case
    read, built = parse_complex(text, check=False), FilteredComplex.build(AMBIENT, points,
                                                                         boundaries)
    assert read == built
    # equality does not compare ranks
    assert [read.ranks(k) for k in read.degrees()] == [built.ranks(k) for k in built.degrees()]


@given(written_complexes(), st.integers(0, 2**32))
def test_ranks_order_and_tie_as_the_values_do(case, seed):
    text, points, boundaries = case
    c = parse_complex(text, check=False)
    want = sorted(points, key=lambda t: (t[2], t[0]))
    assert [(p.name, p.degree, p.value) for p in c.all_points()] == want
    assert validate(c).violations == reference_violations(points, boundaries)
    assert_ranks_follow_values(c)
    for d in _derived(c, random.Random(seed)):
        assert validate(d).violations == reference_violations(*stated(d))
        assert_ranks_follow_values(d)
        assert [(p.name, p.value) for p in d.all_points()] == sorted(
            ((p.name, p.value) for p in d.all_points()), key=lambda nv: (nv[1], nv[0]))


@pytest.mark.parametrize("seed", range(6))
def test_a_perturbed_invalid_complex_words_its_own_violations(seed, monkeypatch):
    """The structural defects are located once, in the store the perturbed
    copy shares, while each complex's messages name its own values."""
    points, boundaries = INVALID_FIVE_POINTS
    c = FilteredComplex.build(AMBIENT, points, boundaries)
    found = validate(c).violations
    assert found == reference_violations(points, boundaries)
    assert {v.code for v in found} == {"ascent_violation", "dd_nonzero"}
    # t's term on x (degree 2, column 0, row 1) points up; d∘d fails from degree 2
    assert certify._structural_defects(c) == ((), (), ((2, 0, 1),), (2,))
    moved = perturb_values(c, min_value_gap(c) / 4, seed)
    assert moved._frame is c._frame
    monkeypatch.setattr(certify, "sparse_product_columns", None)  # d∘d is not taken again
    own = [(p.name, p.degree, p.value) for p in moved.all_points()]
    assert validate(moved).violations == reference_violations(own, boundaries)
    ascent = [v for v in validate(moved).violations if v.code == "ascent_violation"]
    assert ascent != [v for v in found if v.code == "ascent_violation"]


def reference_negation(c):
    """``negate(c)`` built with position dicts and a sort per column: the
    stable descending sort of each degree by rank, each old position's new
    one from a dict, and the anti-transposed entries sorted into each column."""
    n, top = c.ambient_dim, c.n_points - 1
    order = {k: sorted(range(len(c.ranks(k))), key=c.ranks(k).__getitem__, reverse=True)
             for k in c.degrees()}
    points = {n - k: tuple(CriticalPoint(c.points(k)[i].name, n - k, -c.points(k)[i].value)
                           for i in o) for k, o in order.items()}
    position = {k: {old: new for new, old in enumerate(o)} for k, o in order.items()}
    ranks = {n - k: tuple(top - c.ranks(k)[i] for i in o) for k, o in order.items()}
    columns = {n - k: [[] for _ in o] for k, o in order.items()}
    for k in c.degrees():
        for j, col in enumerate(c.columns(k)):
            for m, v in col:  # entry (m, j) of D_k
                columns[n - k + 1][position[k - 1][m]].append((position[k][j], v))
    columns = {k: tuple(tuple(sorted(col)) for col in cols) for k, cols in columns.items()}
    return FilteredComplex(n, points, columns, ranks)


@given(written_complexes())
def test_negation_is_the_sorted_anti_transpose_and_an_involution(case):
    _, points, boundaries = case
    c = FilteredComplex.build(AMBIENT, points, boundaries)
    neg, want = negate(c), reference_negation(c)
    assert neg == want
    for k in want.degrees():
        assert neg.points(k) == want.points(k)
        assert neg.ranks(k) == want.ranks(k)
        assert neg.columns(k) == want.columns(k)
    assert neg.degrees() == want.degrees()
    back = negate(neg)
    assert back == c
    assert [back.ranks(k) for k in back.degrees()] == [c.ranks(k) for k in c.degrees()]
