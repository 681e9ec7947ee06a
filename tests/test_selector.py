import random
from fractions import Fraction
from math import gcd

import pytest

from morseminmax import selector
from morseminmax.barannikov import Obstructed, reduce_integer
from morseminmax.coeff import Coefficients, INTEGERS, RATIONALS
from morseminmax.complexes import FilteredComplex, change_basis, negate, parse_complex, validate
from morseminmax.errors import InternalInconsistencyError, NotAdmissibleError
from morseminmax.gen import (
    paper_fixture,
    perturb_values,
    random_admissible_complex,
    single_point,
)
from morseminmax.oracle import minmax_scan_field
from morseminmax.selector import (
    capitanio_criterion,
    maxmin_field,
    maxmin_int,
    minmax_field,
    minmax_int,
    selector_report,
)

F2 = Coefficients.prime_field(2)
F3 = Coefficients.prime_field(3)
F5 = Coefficients.prime_field(5)
HOMOLOGY_DATA = ("morseminmax.complexes._homology_data",)


@pytest.fixture
def laudenbach():
    return paper_fixture("laudenbach")


@pytest.fixture
def f0():
    return paper_fixture("f0")


@pytest.fixture
def vprime():
    return paper_fixture("capitanio_vprime")


def test_minmax_field_laudenbach(laudenbach):
    value, point = minmax_field(laudenbach, F2)
    assert (value, point.name) == (3, "xi3_n")
    value, point = minmax_field(laudenbach, RATIONALS)
    assert (value, point.name) == (2, "xi2_n")


def test_maxmin_field_laudenbach(laudenbach):
    value, point = maxmin_field(laudenbach, F2)
    assert (value, point.name) == (3, "xi3_n")
    value, point = maxmin_field(laudenbach, F5)
    assert (value, point.name) == (2, "xi2_n")


def test_field_selectors_single_point():
    c = single_point(2, Fraction(7, 2), 4)
    for field in (F2, RATIONALS):
        assert minmax_field(c, field)[0] == Fraction(7, 2)
        assert maxmin_field(c, field)[0] == Fraction(7, 2)


def test_minmax_field_requires_field(laudenbach):
    with pytest.raises(ValueError):
        minmax_field(laudenbach, INTEGERS)


def test_large_prime_field_at_runtime(laudenbach):
    f97 = Coefficients.parse("f97")
    assert minmax_field(laudenbach, f97) == (2, laudenbach.point("xi2_n"))
    assert maxmin_field(laudenbach, f97) == (2, laudenbach.point("xi2_n"))


def test_minmax_int_laudenbach(laudenbach):
    value, point = minmax_int(laudenbach)
    assert (value, point.name) == (3, "xi3_n")


def test_maxmin_int_laudenbach(laudenbach):
    value, point = maxmin_int(laudenbach)
    assert (value, point.name) == (2, "xi2_n")


def test_int_selectors_single_point():
    c = single_point(1, -4, 3)
    assert minmax_int(c)[0] == -4
    assert maxmin_int(c)[0] == -4


def test_int_selectors_f0(f0):
    assert minmax_int(f0) == (2, f0.point("xi2_n"))
    assert maxmin_int(f0) == (2, f0.point("xi2_n"))


def test_not_admissible_propagates():
    c = FilteredComplex.build(3, [("a", 1, 0), ("b", 1, 1)], {})
    with pytest.raises(NotAdmissibleError):
        minmax_int(c)
    with pytest.raises(NotAdmissibleError):
        minmax_field(c, RATIONALS)
    with pytest.raises(NotAdmissibleError):
        maxmin_int(c)
    with pytest.raises(NotAdmissibleError):
        maxmin_field(c, RATIONALS)
    torsion = FilteredComplex.build(
        2, [("a", 0, 0), ("b", 1, 1), ("t", 2, 2)], {"t": {"b": 2}})
    with pytest.raises(NotAdmissibleError, match="torsion"):
        maxmin_int(torsion)


def test_int_selector_refuses_a_broken_presentation(monkeypatch):
    # d∘d != 0: the boundary of t is b, which is not a cycle
    broken = FilteredComplex.build(
        2, [("a", 0, 0), ("b", 1, 1), ("t", 2, 2)], {"b": {"a": 1}, "t": {"b": 1}})
    with pytest.raises(InternalInconsistencyError, match="outside the cycle lattice"):
        selector._minmax_int_at(broken, 1)
    # two free cycles and no boundaries: the presentation has rank two
    two = FilteredComplex.build(2, [("a", 1, 0), ("b", 1, 1)], {})
    with pytest.raises(InternalInconsistencyError, match="rank 2, not one"):
        selector._minmax_int_at(two, 1)
    # torsion is refused by the global index before any scan runs
    torsion = FilteredComplex.build(
        2, [("a", 0, 0), ("b", 1, 1), ("t", 2, 2)], {"t": {"b": 2}})
    monkeypatch.setattr(selector, "_reduce_degree", None)
    for select in (minmax_int, maxmin_int):
        with pytest.raises(NotAdmissibleError, match="torsion"):
            select(torsion)


@pytest.mark.parametrize("fixture, planted, message", [
    ("f0", "xi3_n", "expected one free point of degree 2 over f2, found "
                    "['xi2_n', 'xi3_n'] in the free set of the integer certificate"),
    ("laudenbach", "xi2_n", "expected one free point of degree 2 over f2, found "
                            "['xi3_n', 'xi2_n'] in the free set of the f2 reduction"),
], ids=["certified", "obstructed"])
def test_field_selector_names_the_field_and_the_free_set(monkeypatch, fixture, planted,
                                                         message):
    c = paper_fixture(fixture)
    real = selector.free_points
    monkeypatch.setattr(selector, "free_points",
                        lambda x, field: real(x, field) + (x.point(planted),))
    with pytest.raises(InternalInconsistencyError) as err:
        minmax_field(c, F2)
    assert str(err.value) == message


def test_maxmin_takes_negated_index_from_the_complex():
    # the negated complex has the anti-transposed matrices, with the same
    # ranks and invariant factors: its homology is never recomputed
    for seed in (4, 21, 58):
        c = random_admissible_complex(seed, max_points=30)
        got = (maxmin_int(c), maxmin_field(c, F3), maxmin_field(c, RATIONALS))
        assert HOMOLOGY_DATA in c._frame and HOMOLOGY_DATA not in negate(c)._frame
        fresh = random_admissible_complex(seed, max_points=30)
        n = negate(fresh)
        via_negated = [minmax_int(n), minmax_field(n, F3), minmax_field(n, RATIONALS)]
        assert got == tuple((-v, fresh.point(p.name)) for v, p in via_negated)


def test_selector_report_laudenbach(laudenbach):
    report = selector_report(
        laudenbach, [INTEGERS, F2, F3, RATIONALS])
    z = report.entry("z")
    assert (z.minmax_value, z.minmax_point.name) == (3, "xi3_n")
    assert (z.maxmin_value, z.maxmin_point.name) == (2, "xi2_n")
    assert not z.equal
    f2 = report.entry("f2")
    assert (f2.minmax_value, f2.maxmin_value) == (3, 3)
    for tok in ("f3", "q"):
        e = report.entry(tok)
        assert (e.minmax_value, e.maxmin_value) == (2, 2)
        assert e.equal
    assert not report.int_equal
    assert report.chain_ok
    assert report.propagation_ok  # vacuous: integer selectors differ


def test_selector_report_single_point():
    c = single_point(2, 9, 4)
    report = selector_report(c, [INTEGERS, F2, F5, RATIONALS])
    assert all(e.minmax_value == 9 and e.maxmin_value == 9 for e in report.entries)
    assert report.int_equal and report.chain_ok and report.propagation_ok


def test_selector_report_certified_random():
    for seed in range(10):
        c = random_admissible_complex(seed, max_points=18)
        report = selector_report(c, [INTEGERS, RATIONALS, F2])
        assert report.int_equal and report.chain_ok and report.propagation_ok
        values = {(e.minmax_value, e.maxmin_value) for e in report.entries}
        assert len(values) == 1


def test_selector_report_flags_without_z(laudenbach):
    report = selector_report(laudenbach, [F2, RATIONALS])
    assert not report.int_equal
    assert report.chain_ok
    assert [e.coeff.token() for e in report.entries] == ["f2", "q"]


def test_duality_minmax_vs_negated(laudenbach):
    for c in (laudenbach, single_point(2, 3, 4)):
        neg = negate(c)
        mm = minmax_int(c)
        sm = maxmin_int(c)
        assert sm[0] == -minmax_int(neg)[0]
        assert mm[0] == -maxmin_int(neg)[0]


def test_translation_and_scaling_equivariance(laudenbach):
    def transform(c, scale, shift):
        points = [(p.name, p.degree, p.value * scale + shift) for p in c.all_points()]
        boundaries = {
            p.name: {q.name: coeff for coeff, q in c.boundary_chain(p.name)}
            for p in c.all_points() if c.boundary_chain(p.name)
        }
        return FilteredComplex.build(c.ambient_dim, points, boundaries)

    scale, shift = Fraction(3, 2), Fraction(-7, 3)
    moved = transform(laudenbach, scale, shift)
    for system in (INTEGERS, F2, RATIONALS):
        if system.is_integers:
            base_mm, base_sm = minmax_int(laudenbach), maxmin_int(laudenbach)
            got_mm, got_sm = minmax_int(moved), maxmin_int(moved)
        else:
            base_mm, base_sm = minmax_field(laudenbach, system), maxmin_field(laudenbach, system)
            got_mm, got_sm = minmax_field(moved, system), maxmin_field(moved, system)
        assert got_mm[0] == base_mm[0] * scale + shift
        assert got_sm[0] == base_sm[0] * scale + shift
        assert got_mm[1].name == base_mm[1].name
        assert got_sm[1].name == base_sm[1].name


def test_stability_under_perturbation(laudenbach):
    eps = Fraction(1, 4)
    moved = perturb_values(laudenbach, eps, seed=3)
    assert abs(minmax_int(moved)[0] - minmax_int(laudenbach)[0]) <= eps
    assert abs(maxmin_int(moved)[0] - maxmin_int(laudenbach)[0]) <= eps
    for field in (F2, F3, RATIONALS):
        assert abs(minmax_field(moved, field)[0] - minmax_field(laudenbach, field)[0]) <= eps


def _characteristic_three():
    """The laudenbach complex with 3 in place of 2."""
    return FilteredComplex.build(
        4,
        [("a", 1, 0), ("b", 2, 1), ("c", 2, 2), ("d", 2, 3), ("e", 3, 4)],
        {"b": {"a": 1}, "c": {"a": -3}, "d": {"a": -1}, "e": {"c": 1, "d": -3}},
    )


def test_split_complex_with_characteristic_three():
    # same shape as the laudenbach complex but with 3 in place of 2: the
    # integer selectors split and F3 is now the odd characteristic out.
    # Hand reduction: over Q (and F2) the free point is c; over F3 it is d.
    c = _characteristic_three()
    assert minmax_int(c) == (3, c.point("d"))
    assert maxmin_int(c) == (2, c.point("c"))
    assert minmax_field(c, F3) == (3, c.point("d"))
    for field in (F2, F5, RATIONALS):
        assert minmax_field(c, field) == (2, c.point("c"))
        assert maxmin_field(c, field) == (2, c.point("c"))
    report = selector_report(c, [INTEGERS, F2, F3, RATIONALS])
    assert not report.int_equal
    assert report.chain_ok and report.propagation_ok


# five points conjugated away from a normal form (seed 73 of a random
# conjugation at five points): the degree-2 cycles below x0 reach only four
# times the generator of H_2 over Z, while over F_2 x2 is already a cycle
SEED_73 = """ambient 4
point w0 1 0
point x1 2 1
point x2 2 2
point x0 2 3
point h0 3 4
boundary x1 : 16*w0
boundary x2 : -14*w0
boundary x0 : -13*w0
boundary h0 : -3*x1 4*x2 -8*x0
"""


def test_integer_selectors_sit_outside_every_field_on_both_sides():
    # on Laudenbach the integer minmax meets F_2's and the maxmin Q's; here Z
    # is strictly above every field on the minmax side and below on the maxmin
    c = parse_complex(SEED_73)
    outcome = reduce_integer(c)
    assert isinstance(outcome, Obstructed)
    assert (outcome.column.name, outcome.pivot) == ("x1", 16)
    report = selector_report(c, [INTEGERS, RATIONALS, F2, F3, F5])
    z, *fields = report.entries
    assert (z.minmax_value, z.minmax_point.name) == (3, "x0")
    assert (z.maxmin_value, z.maxmin_point.name) == (1, "x1")
    for e in fields:
        assert (e.minmax_value, e.minmax_point.name) == (2, "x2"), e.coeff
        assert (e.maxmin_value, e.maxmin_point.name) == (2, "x2"), e.coeff
    assert (report.int_equal, report.chain_ok, report.propagation_ok) == (False, True, True)
    for field in (RATIONALS, F2, F3):
        assert minmax_scan_field(c, field) == (2, c.point("x2"))


def _primitive_kernel(rows, ncols):
    """Integer kernel vectors of an integer matrix: a Fraction reduced row
    echelon kernel with each vector scaled to coprime integer entries."""
    rows = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [v / rows[rank][col] for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
    basis = []
    for free in (col for col in range(ncols) if col not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][free]
        den = 1
        for v in vec:
            den = den * v.denominator // gcd(den, v.denominator)
        ints = [int(v * den) for v in vec]
        g = 0
        for v in ints:
            g = gcd(g, v)
        basis.append([v // g for v in ints])
    return basis


def _family_complex(seed):
    """Seeded ambient-2 complex with rank(H1) = 1 when the random boundary
    has full rank; entries of the degree-1 boundary and the kernel weights of
    the degree-2 boundary are drawn from [-3, 3]."""
    rng = random.Random(seed)
    n0, n2 = rng.randint(1, 3), rng.randint(0, 3)
    degrees = [0] * n0 + [1] * (n0 + n2 + 1) + [2] * n2
    rng.shuffle(degrees)
    names = {0: [], 1: [], 2: []}
    value = {}
    for v, k in enumerate(degrees, start=1):
        name = f"x{k}_{len(names[k])}"
        names[k].append(name)
        value[name] = v
    bnd = {}
    for b in names[1]:
        chain = {a: rng.randint(-3, 3) for a in names[0] if value[a] < value[b]}
        bnd[b] = {a: x for a, x in chain.items() if x}
    for t in names[2]:
        below = [b for b in names[1] if value[b] < value[t]]
        rows = [[bnd[b].get(a, 0) for b in below] for a in names[0]]
        col = [0] * len(below)
        for vec in _primitive_kernel(rows, len(below)):
            q = rng.randint(-3, 3)
            col = [x + q * y for x, y in zip(col, vec)]
        bnd[t] = {b: x for b, x in zip(below, col) if x}
    points = [(n, k, value[n]) for k in names for n in names[k]]
    return FilteredComplex.build(2, points, bnd)


# (minmax_int, maxmin_int) witnesses of every seed in range(1000) whose
# complex is valid, admissible and integer-obstructed
OBSTRUCTED_WITNESSES = {
    10: ("x1_3", "x1_0"), 59: ("x1_1", "x1_0"), 90: ("x1_1", "x1_0"),
    107: ("x1_4", "x1_3"), 108: ("x1_1", "x1_0"), 121: ("x1_2", "x1_0"),
    141: ("x1_2", "x1_0"), 146: ("x1_1", "x1_0"), 223: ("x1_3", "x1_1"),
    228: ("x1_4", "x1_1"), 233: ("x1_0", "x1_0"), 242: ("x1_2", "x1_1"),
    251: ("x1_2", "x1_0"), 282: ("x1_3", "x1_0"), 360: ("x1_1", "x1_0"),
    379: ("x1_2", "x1_0"), 390: ("x1_3", "x1_1"), 397: ("x1_1", "x1_0"),
    401: ("x1_2", "x1_1"), 426: ("x1_1", "x1_0"), 475: ("x1_1", "x1_0"),
    484: ("x1_4", "x1_3"), 518: ("x1_4", "x1_4"), 535: ("x1_3", "x1_0"),
    552: ("x1_1", "x1_0"), 568: ("x1_1", "x1_0"), 608: ("x1_2", "x1_2"),
    676: ("x1_4", "x1_0"), 747: ("x1_2", "x1_0"), 757: ("x1_2", "x1_0"),
    758: ("x1_2", "x1_1"), 761: ("x1_2", "x1_0"), 852: ("x1_3", "x1_2"),
    876: ("x1_2", "x1_0"), 879: ("x1_2", "x1_1"), 880: ("x1_1", "x1_0"),
    903: ("x1_1", "x1_0"), 998: ("x1_1", "x1_0"),
}


def test_int_selectors_on_obstructed_family():
    witnesses = {}
    for seed in range(1000):
        c = _family_complex(seed)
        report = validate(c)
        if not (report.ok and report.admissible):
            continue
        if not isinstance(reduce_integer(c), Obstructed):
            continue
        (mm_v, mm_p), (sm_v, sm_p) = minmax_int(c), maxmin_int(c)
        witnesses[seed] = (mm_p.name, sm_p.name)
        assert (mm_v, sm_v) == (mm_p.value, sm_p.value)
        neg_v, neg_p = minmax_int(negate(c))
        assert (-neg_v, neg_p.name) == (sm_v, sm_p.name)
        for field in (F2, F3, RATIONALS):
            assert sm_v <= minmax_field(c, field)[0] <= mm_v
    assert witnesses == OBSTRUCTED_WITNESSES


def _conjugated(c, rng):
    """c under a random value-order triangular basis change with +-1 diagonal."""
    transforms = {}
    for k in c.degrees():
        n = len(c.points(k))
        transforms[k] = [[rng.choice((1, -1)) if i == j else
                          rng.randint(-3, 3) if i < j and rng.random() < 0.5 else 0
                          for j in range(n)] for i in range(n)]
    return change_basis(c, transforms)


def test_int_selectors_invariant_under_conjugation(laudenbach, monkeypatch):
    # non-unit pivots make the integer reductions take Euclid's step, and
    # conjugation makes them meet remainders; the selectors must not move
    swapped = 0

    def counting(reduce):
        def wrapped(*args):
            nonlocal swapped
            pairs, C, R, first = reduce(*args)
            # a remainder leaves in slot t a vector reaching past index t
            swapped += any(max(C[t]) != t for t in pairs)
            return pairs, C, R, first
        return wrapped

    # only the reductions the selector reads: the memoized one of the
    # boundary into the global degree, and the one of its presentation
    monkeypatch.setattr(selector, "_integer_reduction", counting(selector._integer_reduction))
    monkeypatch.setattr(selector, "_reduce_degree", counting(selector._reduce_degree))
    rng = random.Random(2011)
    cases = [(laudenbach, 60), (_characteristic_three(), 60)]
    cases += [(_family_complex(seed), 4) for seed in OBSTRUCTED_WITNESSES]
    for c, trials in cases:
        expected = [(v, p.name) for v, p in (minmax_int(c), maxmin_int(c))]
        for _ in range(trials):
            moved = _conjugated(c, rng)
            assert [(v, p.name) for v, p in (minmax_int(moved), maxmin_int(moved))] == expected
    assert swapped >= 100


def test_capitanio_criterion(vprime):
    assert capitanio_criterion(vprime, "xi2_n") is True
    assert capitanio_criterion(vprime, "xi3_n") is True
    assert capitanio_criterion(vprime, "xi1_n") is False
    with pytest.raises(ValueError):
        capitanio_criterion(vprime, "nope")


def test_capitanio_criterion_vacuous():
    c = single_point(2, 0, 4)
    assert capitanio_criterion(c, "xi") is True


def test_capitanio_refutation(vprime):
    # the criterion passes on xi2_n although xi2_n is not free over Q
    from morseminmax.barannikov import reduce

    free = reduce(vprime, RATIONALS).free_names()
    assert free == {"xi3_n"}
    assert capitanio_criterion(vprime, "xi2_n")
    assert "xi2_n" not in free
