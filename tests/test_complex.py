import dataclasses
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from morseminmax import barannikov, certify, coeff, complexes
from morseminmax.barannikov import (
    Certified,
    Obstructed,
    _reduce_degree,
    reduce,
    reduce_integer,
)
from morseminmax.coeff import INTEGERS, RATIONALS, Coefficients, sparse_columns
from morseminmax.complexes import (
    CriticalPoint,
    FilteredComplex,
    _homology_data,
    change_basis,
    global_index,
    memoized,
    negate,
    parse_complex,
    restrict,
    serialize,
    validate,
)
from morseminmax.errors import (
    EndpointCriticalError,
    InvalidComplexError,
    NonTriangularError,
    NonUnitDiagonalError,
    NotAdmissibleError,
    ParseError,
)
from morseminmax.gen import (
    paper_fixture,
    random_admissible_complex,
    random_complex,
    single_point,
)
from morseminmax.oracle import HomologySummary, homology
from morseminmax.selector import maxmin_field, minmax_int

from helpers import hidden_laudenbach, inverse_conjugate, mat_mul, rank_fraction


@pytest.fixture
def laudenbach():
    return paper_fixture("laudenbach")


@pytest.fixture
def f0():
    return paper_fixture("f0")


# -- parsing and serialization ------------------------------------------------

def test_parse_laudenbach_fixture(laudenbach):
    text = serialize(laudenbach)
    c = parse_complex(text)
    assert c == laudenbach
    assert c.n_points == 5
    assert len(c.points(2)) == 3


def test_a_critical_point_is_a_frozen_slotted_value():
    p = CriticalPoint("a", 1, Fraction(1, 2))
    assert not hasattr(p, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.value = Fraction(1)
    same = CriticalPoint("a", 1, Fraction(2, 4))
    assert p == same and hash(p) == hash(same) and len({p, same}) == 1
    assert p != CriticalPoint("a", 1, Fraction(1, 3)) and p != CriticalPoint("b", 1, p.value)
    assert pickle.loads(pickle.dumps(p)) == p
    moved = dataclasses.replace(p, value=Fraction(3))
    assert (moved.name, moved.degree, moved.value, p.value) == ("a", 1, 3, Fraction(1, 2))


def test_serialize_round_trip_idempotent(laudenbach):
    once = serialize(laudenbach)
    assert serialize(parse_complex(once)) == once


def test_serialize_empty_degenerate():
    c = FilteredComplex.build(3, [], {})
    assert serialize(c) == "ambient 3\n"
    assert parse_complex("ambient 3\n") == c


def test_serialize_rational_values():
    c = FilteredComplex.build(2, [("a", 1, Fraction(10, 4))], {})
    assert "point a 1 5/2" in serialize(c)
    assert parse_complex(serialize(c)) == c


def test_parse_accepts_comments_and_bytes():
    text = "# heading\nambient 2  # trailing\npoint a 1 0\n"
    c = parse_complex(text.encode())
    assert c.point("a").value == 0


def test_parse_syntax_errors_carry_location():
    with pytest.raises(ParseError) as exc:
        parse_complex("ambient 2\npoint a 1 zero\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError, match="duplicate point name"):
        parse_complex("ambient 2\npoint a 1 0\npoint a 1 1\n")
    with pytest.raises(ParseError, match="unknown point name"):
        parse_complex("ambient 2\npoint b 1 1\nboundary b : 1*c\n")
    with pytest.raises(ParseError, match="non-integer coefficient"):
        parse_complex("ambient 2\npoint a 0 0\npoint b 1 1\nboundary b : 1/2*a\n")
    with pytest.raises(ParseError, match="ambient"):
        parse_complex("point a 1 0\n")
    with pytest.raises(ParseError, match="zero coefficient"):
        parse_complex("ambient 2\npoint a 0 0\npoint b 1 1\nboundary b : 0*a\n")


@pytest.mark.parametrize("text", [
    "ambient \u00b2\n",
    "ambient \u0663\n",
    "ambient 2\npoint a \u0663 0\n",
    "ambient 2\npoint a 0 \u0663\n",
    "ambient 2\npoint a 0 0\npoint b 1 1\nboundary b : \u0663*a\n",
], ids=["superscript-ambient", "arabic-ambient", "degree", "value", "coefficient"])
def test_parse_rejects_non_ascii_digits(text):
    with pytest.raises(ParseError):
        parse_complex(text)


def test_parse_rejects_non_utf8_bytes_with_location():
    with pytest.raises(ParseError, match="not UTF-8") as exc:
        parse_complex(b"ambient 2\npoint a\xff 1 0\n")
    assert (exc.value.line, exc.value.column) == (2, 8)
    with pytest.raises(ParseError, match="not UTF-8") as exc:
        parse_complex(b"ambient 2\r\npoint a 1 0\r\n\xc3")
    assert (exc.value.line, exc.value.column) == (3, 1)


@pytest.mark.parametrize("text", [
    "ambient " + "9" * 5000,
    "ambient 2\npoint a 0 " + "9" * 5000,
    "ambient 2\npoint a 0 1/" + "9" * 5000,
    "ambient 2\npoint a " + "9" * 5000 + " 0",
    "ambient 2\npoint a 0 0\npoint b 1 1\nboundary b : " + "9" * 5000 + "*a",
], ids=["ambient", "value", "denominator", "degree", "coefficient"])
def test_parse_rejects_overlong_numbers(text):
    # more digits than int() converts is a ParseError, not a ValueError
    with pytest.raises(ParseError, match="too long"):
        parse_complex(text)


def test_huge_ambient_dimension_is_cheap():
    # only degrees that carry points are visited
    c = parse_complex("ambient 1000000000000\npoint a 0 0\n")
    assert global_index(c) == 0


# a strategy listed twice in st.one_of is drawn twice as often
_NUMBERS = st.one_of(st.integers(-2, 3).map(str), st.integers(-2, 3).map(str),
                     st.sampled_from(["1/2", "1/0", "-0", "x", "\u00b2", "\u0663"]))
_NAMES = st.sampled_from(["a", "b", "c", "d", "x_1", "\u00e9", ""])
_LINES = st.one_of(
    st.builds("point {} {} {}".format, _NAMES, _NUMBERS, _NUMBERS),
    st.builds("point {} {} {}".format, _NAMES, _NUMBERS, _NUMBERS),
    st.builds(lambda name, terms: f"boundary {name} : " + " ".join(terms), _NAMES,
              st.lists(st.builds("{}*{}".format, _NUMBERS, _NAMES), min_size=1, max_size=3)),
    st.builds("ambient {}".format, _NUMBERS),
    st.text(max_size=12),
)
# mostly well-formed files, so that some parse and some of those validate
_COMPLEX_TEXTS = st.builds(
    lambda ambient, lines: "\n".join([f"ambient {ambient}"] + lines),
    st.one_of(st.integers(1, 3).map(str), _NUMBERS), st.lists(_LINES, max_size=8))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.binary(), _COMPLEX_TEXTS, _COMPLEX_TEXTS.map(str.encode)))
def test_arbitrary_input_raises_only_parse_errors(data):
    try:
        c = parse_complex(data, check=False)
    except ParseError:
        return
    text = serialize(c)
    assert serialize(parse_complex(text, check=False)) == text
    try:
        checked = parse_complex(data)
    except InvalidComplexError:
        assert not validate(c).ok
    else:
        assert checked == c


def test_parse_checks_invariants_by_default():
    dup = "ambient 2\npoint a 1 0\npoint b 1 0\n"
    with pytest.raises(InvalidComplexError) as exc:
        parse_complex(dup)
    assert any(v.code == "duplicate_value" for v in exc.value.report.violations)
    c = parse_complex(dup, check=False)
    assert not validate(c).ok


def test_parse_ascent_violation_reported():
    text = "ambient 2\npoint a 0 5\npoint b 1 1\nboundary b : 1*a\n"
    report = validate(parse_complex(text, check=False))
    assert [v.code for v in report.violations] == ["ascent_violation"]


# -- validation ---------------------------------------------------------------

def test_validate_laudenbach_ok_and_admissible(laudenbach):
    report = validate(laudenbach)
    assert report.ok and report.admissible


def test_validate_dd_nonzero():
    c = FilteredComplex.build(
        3,
        [("a", 0, 0), ("b", 1, 1), ("t", 2, 2)],
        {"b": {"a": 1}, "t": {"b": 1}},
    )
    report = validate(c)
    assert not report.ok
    assert any(v.code == "dd_nonzero" for v in report.violations)


@st.composite
def boundary_maps(draw):
    """Small complexes with arbitrary boundary coefficients, so d∘d may fail."""
    ambient = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.integers(0, 3), min_size=ambient + 1, max_size=ambient + 1))
    points = [(f"p{k}_{i}", k, i + 10 * k) for k, n in enumerate(sizes) for i in range(n)]
    boundaries = {}
    for name, k, _ in points:
        lower = [q for q, d, _ in points if d == k - 1]
        boundaries[name] = {q: draw(st.sampled_from([0, 0, 1, -1, 2])) for q in lower}
    return FilteredComplex.build(ambient, points, boundaries)


@settings(max_examples=200, deadline=None)
@given(boundary_maps())
def test_validate_dd_matches_dense_product(c):
    expected = []
    for k in c.degrees():
        if c.points(k - 1) and c.points(k + 1):
            prod = mat_mul([list(r) for r in c.matrix(k)],
                           [list(r) for r in c.matrix(k + 1)])
            if any(any(row) for row in prod):
                expected.append(f"boundary squared is nonzero from degree {k + 1}")
    got = [v.detail for v in validate(c).violations if v.code == "dd_nonzero"]
    assert got == expected


def test_validate_bad_degree():
    c = FilteredComplex.build(2, [("a", 5, 0)], {})
    report = validate(c)
    assert any(v.code == "bad_degree" for v in report.violations)


def test_validate_free_pair_not_admissible():
    c = FilteredComplex.build(3, [("a", 1, 0), ("b", 1, 1)], {})
    report = validate(c)
    assert report.ok and not report.admissible
    assert any(v.code == "homology_rank_defect" for v in report.admissibility_findings)


# -- global index -------------------------------------------------------------

def test_global_index_laudenbach(laudenbach):
    assert global_index(laudenbach) == 2


def test_global_index_single_point():
    assert global_index(single_point(3, 7, 4)) == 3


def test_global_index_not_admissible():
    c = FilteredComplex.build(3, [("a", 1, 0), ("b", 1, 1)], {})
    with pytest.raises(NotAdmissibleError):
        global_index(c)


def test_global_index_rejects_torsion():
    c = FilteredComplex.build(
        3,
        [("a", 1, 0), ("b", 2, 1), ("f", 0, 2)],
        {"b": {"a": 2}},
    )
    with pytest.raises(NotAdmissibleError, match="torsion"):
        global_index(c)


# Each builds with FilteredComplex.build but breaks one complex invariant;
# with no check a rank-based global index would read 1 or 2 off the first
# three, and the d∘d one has "H1=-1".
STRUCTURALLY_INVALID = {
    "bad_degree": (2, [("x", 1, 0), ("y", 5, 1)], {}),
    "duplicate_value": (2, [("x", 2, 1), ("a", 0, 0), ("b", 1, 1)], {"b": {"a": 1}}),
    "ascent_violation": (2, [("x", 2, 5), ("a", 0, 3), ("b", 1, 1)], {"b": {"a": 1}}),
    "dd_nonzero": (3, [("a", 0, 0), ("b", 1, 1), ("t", 2, 2)],
                   {"b": {"a": 1}, "t": {"b": 1}}),
}


@pytest.mark.parametrize("code", sorted(STRUCTURALLY_INVALID))
@pytest.mark.parametrize("route", [
    global_index, minmax_int, lambda c: maxmin_field(c, RATIONALS)],
    ids=["global_index", "minmax_int", "maxmin_field"])
def test_global_index_refuses_invalid_complexes(code, route):
    c = FilteredComplex.build(*STRUCTURALLY_INVALID[code])
    with pytest.raises(InvalidComplexError) as exc:
        route(c)
    assert [v.code for v in exc.value.report.violations] == [code]


def test_structural_findings_are_computed_once(monkeypatch, laudenbach):
    calls = Counter()
    real = certify.sparse_product_columns

    def counting(*args, **kwargs):
        calls["sparse_product_columns"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(certify, "sparse_product_columns", counting)
    assert validate(laudenbach).admissible
    seen = calls["sparse_product_columns"]
    assert seen
    assert global_index(laudenbach) == 2
    assert validate(laudenbach).ok
    assert calls["sparse_product_columns"] == seen


def _chain_complex(seed):
    """Small valid complex with arbitrary integer boundaries: torsion, rank
    defects and non-unit pivots are all common. Degree-1 boundaries are
    random; degree-2 boundaries are random integer cycles. Values ascend
    with degree, so every boundary descends in value."""
    rng = random.Random(seed)
    sizes = [rng.randint(1, 3), rng.randint(1, 4), rng.randint(0, 3)]
    points = [(f"p{k}_{i}", k, 10 * k + i) for k, n in enumerate(sizes) for i in range(n)]
    names = [[p for p, k, _ in points if k == d] for d in range(3)]
    D1 = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in names[1]] for _ in names[0]]
    n1 = len(names[1])
    _, C, R, _ = _reduce_degree(sparse_columns(D1, n1), INTEGERS)
    cycles = [[C[j].get(i, 0) for i in range(n1)] for j in range(n1) if not R[j]]
    boundaries = {b: {a: D1[i][j] for i, a in enumerate(names[0])}
                  for j, b in enumerate(names[1])}
    for t in names[2]:
        col = [0] * n1
        for z in cycles:
            q = rng.choice((0, 1, -1, 2, 3))
            col = [a + q * b for a, b in zip(col, z)]
        boundaries[t] = dict(zip(names[1], col))
    return FilteredComplex.build(rng.randint(2, 3), points, boundaries)


def test_homology_data_matches_oracle():
    seen = Counter()
    cases = [paper_fixture("laudenbach"), paper_fixture("f0")]
    cases += [random_admissible_complex(seed, max_points=20) for seed in range(30)]
    cases += [_chain_complex(seed) for seed in range(300)]
    for c in cases:
        assert validate(c).ok
        ranks, torsion = _homology_data(c)
        for k in range(c.ambient_dim + 1):
            expected = HomologySummary(ranks.get(k, 0), torsion.get(k, ()))
            assert homology(c, INTEGERS, k) == expected
            assert homology(c, RATIONALS, k).rank == expected.rank
        seen["certified" if isinstance(reduce_integer(c), Certified) else "obstructed"] += 1
        seen["torsion"] += any(torsion.values())
        seen["rank_defect"] += sorted(r for r in ranks.values() if r) != [1]
    assert min(seen[key] for key in ("certified", "obstructed", "torsion", "rank_defect")) >= 10


def test_validate_needs_no_smith_form_or_echelon_when_certified(monkeypatch):
    # a record of the shapes validate hands to invariant_factors, the only
    # Smith elimination: none on a certified complex, and on an obstructed
    # one only the small residue of its non-unit pivots, however large the
    # complex
    shapes, echelons = [], []
    smith, echelon = barannikov.invariant_factors, coeff._echelon

    def recording(A, ncols=None):
        shapes.append((len(A), len(A[0]) if A else ncols))
        return smith(A, ncols=ncols)

    def counting(rows, field):
        echelons.append(len(rows))
        return echelon(rows, field)

    monkeypatch.setattr(barannikov, "invariant_factors", recording)
    monkeypatch.setattr(coeff, "_echelon", counting)
    certified = [paper_fixture("f0")]
    certified += [random_admissible_complex(seed, max_points=30) for seed in range(20)]
    for c in certified:
        assert validate(c).admissible
        assert isinstance(reduce_integer(c), Certified)
    assert shapes == []
    for c in (paper_fixture("laudenbach"), hidden_laudenbach(200)):
        shapes.clear()
        assert validate(c).admissible
        assert isinstance(reduce_integer(c), Obstructed)
        assert shapes and all(rows <= 3 and cols == 1 for rows, cols in shapes), shapes
    assert echelons == []


# -- negate -------------------------------------------------------------------

def test_negate_laudenbach(laudenbach):
    dual = negate(laudenbach)
    assert dual.point("xi3_n").degree == 2
    assert dual.point("xi3_n").value == -3
    assert dual.boundary_chain("xi3_n") == [(-2, dual.point("xi1_np1"))]
    chain = {q.name: coeff for coeff, q in dual.boundary_chain("xi1_nm1")}
    assert chain == {"xi1_n": 1, "xi2_n": -2, "xi3_n": -1}
    assert validate(dual).ok


def test_negate_involution(laudenbach, f0):
    for c in (laudenbach, f0, single_point(2, 5, 4)):
        assert negate(negate(c)) == c


def test_negate_orders_tied_values_by_name():
    c = FilteredComplex.build(2, [("z", 0, -1), ("b", 1, 0), ("a", 1, 0)],
                              {"a": {"z": 1}, "b": {"z": -1}})
    assert serialize(negate(c)) == ("ambient 2\npoint a 1 0\npoint b 1 0\npoint z 2 1\n"
                                    "boundary z : 1*a -1*b\n")


def test_negate_single_point():
    c = single_point(2, 7, 5)
    dual = negate(c)
    p = dual.point("xi")
    assert (p.degree, p.value) == (3, -7)


# -- restrict -------------------------------------------------------------------

def test_restrict_window_keeps_middle(laudenbach):
    mid = restrict(laudenbach, Fraction(1, 2), Fraction(7, 2))
    assert {p.name for p in mid.points(2)} == {"xi1_n", "xi2_n", "xi3_n"}
    assert mid.n_points == 3
    assert all(not mid.boundary_chain(p.name) for p in mid.all_points())


def test_restrict_full_window_is_identity(laudenbach):
    assert restrict(laudenbach, -10, 10) == laudenbach


def test_restrict_prefix(laudenbach):
    low = restrict(laudenbach, Fraction(-1, 2), Fraction(1, 2))
    assert [p.name for p in low.all_points()] == ["xi1_nm1"]


def test_restrict_endpoint_critical(laudenbach):
    with pytest.raises(EndpointCriticalError):
        restrict(laudenbach, 0, Fraction(1, 2))
    with pytest.raises(EndpointCriticalError):
        restrict(laudenbach, Fraction(-1, 2), 4)
    with pytest.raises(ValueError):
        restrict(laudenbach, 3, 1)


def test_restrict_nested_windows(laudenbach):
    outer = restrict(laudenbach, Fraction(1, 2), Fraction(9, 2))
    inner = restrict(outer, Fraction(3, 2), Fraction(7, 2))
    assert inner == restrict(laudenbach, Fraction(3, 2), Fraction(7, 2))


# -- change_basis ---------------------------------------------------------------

def test_change_basis_slide(f0):
    # xi2_n -> xi2_n - xi1_n, xi3_n -> xi3_n - 2*(xi2_n - xi1_n)
    P2 = [
        [1, -1, 2],
        [0, 1, -2],
        [0, 0, 1],
    ]
    slid = change_basis(f0, {2: P2})
    assert {q.name: v for v, q in slid.boundary_chain("xi1_n")} == {"xi1_nm1": 1}
    assert {q.name: v for v, q in slid.boundary_chain("xi2_n")} == {"xi1_nm1": -1}
    assert {q.name: v for v, q in slid.boundary_chain("xi3_n")} == {"xi1_nm1": 2}
    assert {q.name: v for v, q in slid.boundary_chain("xi1_np1")} == {"xi2_n": 2, "xi3_n": 1}
    assert validate(slid).ok

    # independent oracle: P^{-1} D P by explicit fraction arithmetic
    Pinv = [
        [Fraction(1), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(2)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    assert mat_mul(P2, Pinv) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    D3 = [list(r) for r in f0.matrix(3)]
    expected_D3 = mat_mul(Pinv, D3)
    got_D3 = [list(r) for r in slid.matrix(3)]
    assert got_D3 == expected_D3
    D2 = [list(r) for r in f0.matrix(2)]
    assert [list(r) for r in slid.matrix(2)] == mat_mul(D2, P2)


def test_change_basis_identity(laudenbach):
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert change_basis(laudenbach, {2: eye}) == laudenbach
    assert change_basis(laudenbach, {}) == laudenbach


def test_change_basis_rejects_bad_transforms(laudenbach):
    with pytest.raises(NonUnitDiagonalError):
        change_basis(laudenbach, {2: [[2, 0, 0], [0, 1, 0], [0, 0, 1]]})
    with pytest.raises(NonTriangularError):
        change_basis(laudenbach, {2: [[1, 0, 0], [1, 1, 0], [0, 0, 1]]})
    with pytest.raises(ValueError):
        change_basis(laudenbach, {2: [[1, 0], [0, 1]]})


def test_change_basis_takes_integral_fractions_only(laudenbach):
    as_ints = change_basis(laudenbach, {2: [[1, 2, 0], [0, 1, 0], [0, 0, 1]]})
    assert change_basis(laudenbach, {2: [[1, Fraction(2, 1), 0], [0, 1, 0],
                                         [0, 0, 1]]}) == as_ints
    with pytest.raises(NonUnitDiagonalError,
                       match=r"^degree 2 transform has non-integer entry 1/2 at \(0,1\)$"):
        change_basis(laudenbach, {2: [[1, Fraction(1, 2), 0], [0, 1, 0], [0, 0, 1]]})


def test_change_basis_preserves_validity_and_ranks():
    from morseminmax.coeff import Coefficients, RATIONALS
    from morseminmax.oracle import homology

    c = random_complex(11, {1: 2, 2: 3, 3: 1}, 4)
    P2 = [[1, 2, -3], [0, 1, 1], [0, 0, -1]]
    moved = change_basis(c, {2: P2})
    assert validate(moved).ok
    for k in c.degrees():
        assert rank_fraction([list(r) for r in moved.matrix(k)] or [[]]) == \
            rank_fraction([list(r) for r in c.matrix(k)] or [[]])
    fields = (Coefficients.prime_field(2), Coefficients.prime_field(3), RATIONALS)
    for field in fields:
        for k in range(c.ambient_dim + 1):
            assert homology(moved, field, k) == homology(c, field, k)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_change_basis_with_negative_diagonals(seed):
    rng = random.Random(seed)
    c = random_complex(seed, {1: 3, 2: 5, 3: 3}, 4)
    transforms = {}
    for k in c.degrees():
        m = len(c.points(k))
        P = [[rng.randint(-3, 3) if i < j else 0 for j in range(m)] for i in range(m)]
        for i in range(m):
            P[i][i] = rng.choice((1, -1))
        i = rng.randrange(m)
        P[i][i] = -1  # every degree, and so every adjacent pair, has a -1
        transforms[k] = P
    moved = change_basis(c, transforms)
    assert validate(moved).ok
    for k in c.degrees():
        if c.points(k - 1):
            expected = inverse_conjugate(transforms[k - 1], c.matrix(k), transforms[k])
            assert [list(r) for r in moved.matrix(k)] == expected


# -- hashing --------------------------------------------------------------------

def test_hash_agrees_with_equality(laudenbach):
    lines = serialize(laudenbach).splitlines()
    points = [line for line in lines if line.startswith("point")]
    rest = [line for line in lines if not line.startswith("point")]
    for seed in range(5):
        random.Random(seed).shuffle(points)
        shuffled = parse_complex("\n".join(rest[:1] + points + rest[1:]))
        assert shuffled == laudenbach
        assert hash(shuffled) == hash(laudenbach)
        assert len({laudenbach, shuffled}) == 1
        assert shuffled in {laudenbach}
    assert negate(laudenbach) not in {laudenbach}
    assert {laudenbach: 1}[paper_fixture("laudenbach")] == 1


# -- memoization ----------------------------------------------------------------

def _probe_in(module):
    def probe(c, k):
        return module, k
    probe.__module__ = module
    return memoized(probe)


def test_memo_keys_do_not_collide_across_modules(f0):
    first, second = _probe_in("alpha"), _probe_in("beta")
    assert first.__name__ == second.__name__
    assert first(f0, 1) == ("alpha", 1)
    assert second(f0, 1) == ("beta", 1)
    assert first(f0, 1) is first(f0, 1)


def test_memo_stores_nothing_for_a_call_that_raises(f0):
    for value_free in (False, True):  # the complex's own store, then the shared one
        calls = []

        @memoized(value_free=value_free)
        def flaky(c):
            calls.append(c)
            if len(calls) == 1:
                raise RuntimeError("first call fails")
            return len(calls)

        before = dict(f0._cache), dict(f0._frame)
        with pytest.raises(RuntimeError):
            flaky(f0)
        assert (dict(f0._cache), dict(f0._frame)) == before
        assert (flaky(f0), flaky(f0), len(calls)) == (2, 2, 2)
    before = dict(f0._cache), dict(f0._frame)
    with pytest.raises(ValueError, match="reduce_integer"):
        reduce(f0, INTEGERS)
    assert (dict(f0._cache), dict(f0._frame)) == before


def test_memo_keeps_the_two_stores_apart(f0):
    def probe(c):
        return store
    probe.__module__, probe.__qualname__ = "gamma", "probe"

    store = "own"
    assert memoized(probe)(f0) == "own"
    store = "shared"
    assert memoized(value_free=True)(probe)(f0) == "shared"
    assert f0._cache[("gamma.probe",)] == "own" and f0._frame[("gamma.probe",)] == "shared"


def test_memo_keeps_one_shared_entry_per_argument(f0):
    fields = (Coefficients.prime_field(2), Coefficients.prime_field(3), RATIONALS)
    forms = [reduce(f0, field) for field in fields]
    assert len({id(form) for form in forms}) == 3
    assert all(reduce(f0, field) is form for field, form in zip(fields, forms))
    assert reduce(f0, Coefficients.prime_field(2)) is forms[0]


# -- property: round trips over random complexes -------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_random_round_trip_and_involution(seed):
    c = random_complex(seed, {1: 2, 2: 3, 3: 2}, 4)
    assert parse_complex(serialize(c)) == c
    assert negate(negate(c)) == c
    assert validate(c).ok


@settings(max_examples=150, deadline=None)
@given(st.one_of(boundary_maps(), st.integers(0, 10**6).map(_chain_complex),
                 st.integers(0, 10**6).map(lambda s: random_complex(s, {1: 2, 2: 3, 3: 2}, 4))))
def test_columns_are_the_sparse_form_of_the_dense_view(c):
    for k in range(-1, c.ambient_dim + 2):
        cols, mat = c.columns(k), c.matrix(k)
        assert len(cols) == len(c.points(k))
        assert len(mat) == len(c.points(k - 1))
        assert all(len(row) == len(c.points(k)) for row in mat)
        for j, col in enumerate(cols):
            rows = [i for i, _ in col]
            assert rows == sorted(set(rows))
            assert all(v != 0 for _, v in col)
            assert all(mat[i][j] == dict(col).get(i, 0) for i in range(len(mat)))
    assert parse_complex(serialize(c), check=False) == c
