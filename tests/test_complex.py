from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from morseminmax import coeff
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
from morseminmax.errors import (
    EndpointCriticalError,
    InvalidComplexError,
    NonTriangularError,
    NonUnitDiagonalError,
    NotAdmissibleError,
    ParseError,
)
from morseminmax.gen import paper_fixture, random_complex, single_point

from helpers import mat_mul, rank_fraction


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
            prod = coeff.mat_mul([list(r) for r in c.matrix(k)],
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


# -- property: round trips over random complexes -------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_random_round_trip_and_involution(seed):
    c = random_complex(seed, {1: 2, 2: 3, 3: 2}, 4)
    assert parse_complex(serialize(c)) == c
    assert negate(negate(c)) == c
    assert validate(c).ok
