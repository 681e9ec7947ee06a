from fractions import Fraction

import pytest

from morseminmax import oracle
from morseminmax.barannikov import betti, reduce
from morseminmax.coeff import Coefficients, INTEGERS, RATIONALS
from morseminmax.complexes import FilteredComplex, restrict
from morseminmax.gen import (FIXTURE_NAMES, paper_fixture, random_admissible_complex,
                             single_point)
from morseminmax.oracle import (_global_index, _prefix_rank, _rank, homology,
                                minmax_scan_field, pairs_by_rank)
from morseminmax.selector import minmax_field

F2 = Coefficients.prime_field(2)
F3 = Coefficients.prime_field(3)


@pytest.fixture
def laudenbach():
    return paper_fixture("laudenbach")


def test_homology_laudenbach_int(laudenbach):
    h2 = homology(laudenbach, INTEGERS, 2)
    assert (h2.rank, h2.torsion) == (1, ())
    h1 = homology(laudenbach, INTEGERS, 1)
    assert (h1.rank, h1.torsion) == (0, ())
    assert homology(laudenbach, INTEGERS, 3).rank == 0


def test_homology_empty():
    c = FilteredComplex.build(2, [], {})
    assert homology(c, INTEGERS, 0).rank == 0
    assert homology(c, RATIONALS, 1).rank == 0


def test_homology_detects_torsion():
    c = FilteredComplex.build(3, [("a", 1, 0), ("b", 2, 1)], {"b": {"a": 2}})
    h1 = homology(c, INTEGERS, 1)
    assert (h1.rank, h1.torsion) == (0, (2,))
    # over F2 the same complex looks like two free classes
    assert homology(c, F2, 1).rank == 1
    assert homology(c, F2, 2).rank == 1
    assert homology(c, RATIONALS, 1).rank == 0


def test_pairs_by_rank_laudenbach(laudenbach):
    rational = {(u.name, l.name) for u, l in pairs_by_rank(laudenbach, RATIONALS)}
    assert rational == {("xi1_n", "xi1_nm1"), ("xi1_np1", "xi3_n")}
    mod2 = {(u.name, l.name) for u, l in pairs_by_rank(laudenbach, F2)}
    assert mod2 == {("xi1_n", "xi1_nm1"), ("xi1_np1", "xi2_n")}


def test_pairs_by_rank_single_point():
    assert pairs_by_rank(single_point(2, 1, 4), RATIONALS) == set()


def test_pairs_by_rank_matches_reduce():
    fields = (F2, F3, Coefficients.prime_field(5), RATIONALS)
    for seed in range(500):
        c = random_admissible_complex(seed, max_points=14)
        for field in fields:
            form = reduce(c, field)
            pairs = pairs_by_rank(c, field)
            assert {(u.name, l.name) for u, l in pairs} == form.pair_names()
            paired = {p.name for pair in pairs for p in pair}
            assert {p.name for p in c.all_points()} - paired == form.free_names()


def test_minmax_scan_laudenbach(laudenbach):
    assert minmax_scan_field(laudenbach, RATIONALS)[0] == 2
    assert minmax_scan_field(laudenbach, RATIONALS)[1].name == "xi2_n"
    assert minmax_scan_field(laudenbach, F2) == (3, laudenbach.point("xi3_n"))


def test_minmax_scan_single_point():
    c = single_point(3, Fraction(5, 2), 4)
    assert minmax_scan_field(c, F2)[0] == Fraction(5, 2)


def test_minmax_scan_matches_free_point_route():
    for seed in range(12):
        c = random_admissible_complex(seed, max_points=14)
        for field in (F2, RATIONALS):
            assert minmax_scan_field(c, field) == minmax_field(c, field)


def pairs_by_submatrix_ranks(c, field):
    """pairs_by_rank with one elimination per submatrix D_k[m:, :j]."""
    pairs = set()
    for k in c.degrees():
        lower, upper = c.points(k - 1), c.points(k)
        r = [[_rank(c, field, k, m, j) for j in range(len(upper) + 1)]
             for m in range(len(lower) + 1)]
        for m, low in enumerate(lower):
            for j, up in enumerate(upper):
                if r[m][j + 1] - r[m][j] - r[m + 1][j + 1] + r[m + 1][j]:
                    pairs.add((up, low))
    return pairs


def scan_by_submatrix_ranks(c, field):
    """minmax_scan_field with two eliminations per prefix."""
    lam = _global_index(c)
    top = len(c.points(lam + 1))
    return next((p.value, p) for cs, p in enumerate(c.points(lam), start=1)
                if _prefix_rank(c, field, lam, cs, top) >= 1)


def test_rank_profiles_match_the_submatrix_route():
    cases = [paper_fixture(name) for name in FIXTURE_NAMES]
    cases += [random_admissible_complex(seed) for seed in range(200)]
    for c in cases:
        for field in (F2, F3, RATIONALS):
            assert pairs_by_rank(c, field) == pairs_by_submatrix_ranks(c, field)
            assert minmax_scan_field(c, field) == scan_by_submatrix_ranks(c, field)


def test_betti_matches_homology(laudenbach):
    for field in (F2, F3, RATIONALS):
        for k in range(5):
            assert betti(laudenbach, field, k) == homology(laudenbach, field, k).rank
    window = restrict(laudenbach, Fraction(1, 2), Fraction(7, 2))
    for k in range(5):
        assert betti(window, RATIONALS, k) == homology(window, RATIONALS, k).rank


def test_prefix_rank_monotone():
    c = random_admissible_complex(5, max_points=10)
    for k in c.degrees():
        ns, nt = len(c.points(k)), len(c.points(k + 1))
        for cs in range(ns + 1):
            for ct in range(nt + 1):
                r = _prefix_rank(c, RATIONALS, k, cs, ct)
                # more boundaries never gain rank, more cycles never lose it
                if ct < nt:
                    assert _prefix_rank(c, RATIONALS, k, cs, ct + 1) <= r
                if cs:
                    assert _prefix_rank(c, RATIONALS, k, cs - 1, ct) <= r


def test_prefix_rank_counts_the_barcode():
    """The prefix rank counts the degree-k bars of the reduction born among
    the first cs points and not yet killed by the first ct degree-(k+1)
    points: free, or paired upward at index ct or later."""
    for seed in range(30):
        c = random_admissible_complex(seed, max_points=20)
        for field in (F2, F3, RATIONALS):
            form = reduce(c, field)
            death = {lower.name: c.points(upper.degree).index(upper)
                     for upper, lower in form.pairs}
            killed = {upper.name for upper, _ in form.pairs}
            for k in c.degrees():
                nt = len(c.points(k + 1))
                for cs in range(len(c.points(k)) + 1):
                    for ct in range(nt + 1):
                        alive = sum(1 for p in c.points(k)[:cs] if p.name not in killed
                                    and death.get(p.name, nt) >= ct)
                        assert _prefix_rank(c, field, k, cs, ct) == alive


def test_oracle_ranks_each_boundary_matrix_once(monkeypatch):
    calls = []
    real = oracle.rank_over

    def counting(A, field):
        calls.append(len(A))
        return real(A, field)

    monkeypatch.setattr(oracle, "rank_over", counting)
    c = random_admissible_complex(5, max_points=40)
    nonempty = [k for k in c.degrees() if c.points(k - 1)]
    assert len(nonempty) >= 3
    for _ in range(2):
        ranks = [homology(c, F2, k).rank for k in range(c.ambient_dim + 1)]
    assert sum(ranks) == 1
    assert len(calls) == len(nonempty)
    homology(c, RATIONALS, 2)  # ranks D_2 and D_3 over Q
    homology(c, INTEGERS, 2)  # over Z the ranks come from Smith forms
    assert len(calls) == len(nonempty) + 2


def test_oracle_takes_one_smith_form_per_boundary_matrix(monkeypatch):
    calls = []
    real = oracle.invariant_factors

    def counting(A, **kw):
        calls.append(len(A))
        return real(A, **kw)

    monkeypatch.setattr(oracle, "invariant_factors", counting)
    c = random_admissible_complex(5, max_points=40)
    nonempty = [k for k in c.degrees() if c.points(k - 1)]
    assert len(nonempty) >= 3
    ranks = [homology(c, INTEGERS, k).rank for k in range(c.ambient_dim + 1)]
    assert sum(ranks) == 1
    minmax_scan_field(c, F2)
    assert len(calls) == len(nonempty)
