import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from morseminmax import gen
from morseminmax.barannikov import reduce
from morseminmax.coeff import RATIONALS
from morseminmax.complexes import (FilteredComplex, change_basis, global_index, parse_complex,
                                   serialize, validate)
from morseminmax.gen import (
    FIXTURE_NAMES,
    min_value_gap,
    paper_fixture,
    perturb_values,
    random_admissible_complex,
    random_complex,
    random_complex_plan,
    single_point,
)
from morseminmax.oracle import homology
from morseminmax.selector import minmax_int

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def test_all_fixtures_validate():
    for name in FIXTURE_NAMES:
        report = validate(paper_fixture(name))
        assert report.ok, name


def test_laudenbach_shape():
    c = paper_fixture("laudenbach")
    assert c.n_points == 5
    assert len(c.points(2)) == 3
    assert global_index(c) == 2
    assert validate(c).admissible


def test_f0_admissible():
    assert validate(paper_fixture("f0")).admissible


def test_capitanio_vprime_boundary_squared():
    c = paper_fixture("capitanio_vprime")
    assert validate(c).ok  # no degree-3 points, composition vacuously zero
    assert len(c.points(2)) == 3


def test_unknown_fixture():
    with pytest.raises(ValueError):
        paper_fixture("nope")


def test_single_fixture():
    c = single_point(2, 7, 4)
    assert global_index(c) == 2
    assert minmax_int(c)[0] == 7


def test_fixture_files_match():
    for name in FIXTURE_NAMES:
        text = (DATA_DIR / f"{name}.cplx").read_text()
        assert text == serialize(paper_fixture(name))
        assert parse_complex(text) == paper_fixture(name)


def test_random_complex_designed_free_point():
    c, plan = random_complex_plan(0, {1: 1, 2: 2}, 4)
    assert len(plan.free) == 1
    form = reduce(c, RATIONALS)
    assert form.free_names() == set(plan.free)
    assert form.pair_names() == set(plan.pairs)


def test_random_complex_plan_recovered_many_seeds():
    for seed in range(20):
        c, plan = random_complex_plan(seed, {0: 1, 1: 3, 2: 3, 3: 2}, 4)
        assert validate(c).ok
        form = reduce(c, RATIONALS)
        assert form.pair_names() == set(plan.pairs)
        assert form.free_names() == set(plan.free)


def dense_construction(seed, sizes, ambient):
    """random_complex_plan as first written: build the normal complex, draw
    each transform as a dense matrix, entry by entry, and conjugate by the
    dense change_basis."""
    rng, points, boundaries, plan = gen._layout(seed, sizes, ambient)
    normal = FilteredComplex.build(ambient, points, boundaries)
    transforms = {}
    for k in normal.degrees():
        mk = len(normal.points(k))
        if mk < 2:
            continue
        P = [[1 if i == j else 0 for j in range(mk)] for i in range(mk)]
        for j in range(1, mk):
            for i in range(j):
                if rng.random() < 0.5:
                    P[i][j] = rng.randint(-3, 3)
        transforms[k] = P
    return (change_basis(normal, transforms) if transforms else normal), plan


@pytest.fixture(scope="module")
def construction_cases():
    """(seed, sizes, ambient) of the fuzz sizes, as random_admissible_complex
    draws them at 40 and 200 points, and of the bench's dense sizes."""
    cases = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gen, "random_complex_plan",
                   lambda *args: cases.append(args) or (FilteredComplex.build(1, []), None))
        for seed in range(200):
            random_admissible_complex(seed, max_points=40)
        for seed in range(3):
            random_admissible_complex(seed, max_points=200)
    cases += [(seed, {1: 15, 2: 31, 3: 15}, 4) for seed in (0, 1, 2, 1000)]
    cases += [(seed, {1: 35, 2: 71, 3: 35}, 4) for seed in (0, 1000)]
    return cases


def fingerprint(c, plan):
    return serialize(c), [c.ranks(k) for k in c.degrees()], plan


def test_random_complex_plan_equals_the_dense_construction(construction_cases):
    for case in construction_cases:
        assert fingerprint(*random_complex_plan(*case)) == \
            fingerprint(*dense_construction(*case)), case


def test_random_complex_plan_bytes_are_pinned(construction_cases):
    # the digest of these cases as the dense construction made them, before
    # the transforms were drawn as sparse columns; it also pins the layout,
    # which the two constructions share
    digest = hashlib.sha256()
    for case in construction_cases:
        for part in fingerprint(*random_complex_plan(*case)):
            digest.update(str(part).encode())
    assert len(construction_cases) == 209
    assert digest.hexdigest() == ("14c7bd41ed1889baa497deff1d4cd61c"
                                  "c865c5043cfb21dbe058b87a91f1593a")


def test_random_complex_oracle_agreement():
    c = random_complex(7, {1: 2, 2: 3, 3: 1}, 4)
    assert validate(c).ok
    form = reduce(c, RATIONALS)
    for k in range(5):
        assert len(form.free_of_degree(k)) == homology(c, RATIONALS, k).rank


def test_random_complex_deterministic():
    a = random_complex(42, {1: 2, 2: 3}, 3)
    b = random_complex(42, {1: 2, 2: 3}, 3)
    assert serialize(a) == serialize(b)
    c = random_complex(43, {1: 2, 2: 3}, 3)
    assert serialize(c) != serialize(a)


def test_random_complex_infeasible_sizes():
    with pytest.raises(ValueError):
        random_complex(0, {}, 3)
    with pytest.raises(ValueError):
        random_complex(0, {5: 1}, 3)
    with pytest.raises(ValueError):
        random_complex(0, {1: -2}, 3)


def test_random_admissible_complex_bounds():
    for seed in range(30):
        c = random_admissible_complex(seed, max_points=40)
        assert c.n_points <= 40
        assert validate(c).admissible
        global_index(c)
    # the least bound, a free point and one cancelling pair
    assert all(random_admissible_complex(seed, max_points=3).n_points == 3 for seed in range(20))


@pytest.mark.parametrize("max_points", [2, 1, 0, -5])
def test_random_admissible_complex_refuses_a_bound_below_three_points(max_points):
    with pytest.raises(ValueError, match="max_points must be at least 3"):
        random_admissible_complex(0, max_points=max_points)


def test_perturb_values_stability():
    c = paper_fixture("laudenbach")
    eps = Fraction(1, 4)
    moved = perturb_values(c, eps, seed=11)
    assert [p.name for p in moved.all_points()] == [p.name for p in c.all_points()]
    for p in c.all_points():
        assert abs(moved.point(p.name).value - p.value) <= eps
    assert abs(minmax_int(moved)[0] - minmax_int(c)[0]) <= eps
    assert validate(moved).ok


def test_perturb_values_zero_eps_is_identity():
    c = paper_fixture("laudenbach")
    assert perturb_values(c, 0, seed=5) == c


def test_perturb_values_rejects_large_eps():
    c = paper_fixture("laudenbach")
    assert min_value_gap(c) == 1
    with pytest.raises(ValueError):
        perturb_values(c, Fraction(1, 2), seed=0)
    with pytest.raises(ValueError):
        perturb_values(c, -1, seed=0)
    # a single point has no gap constraint
    perturb_values(single_point(1, 0, 2), 100, seed=0)


def test_perturb_values_guards_with_the_memoized_gap(monkeypatch):
    # fuzz reads the gap to size eps, then perturb_values compares eps with it
    c = random_admissible_complex(4)
    real = FilteredComplex.all_points
    scans = []
    monkeypatch.setattr(FilteredComplex, "all_points",
                        lambda self: scans.append(self) or real(self))
    gap = min_value_gap(c)
    assert (min_value_gap(c), len(scans)) == (gap, 1)
    perturb_values(c, gap / 4, seed=0)
    assert len(scans) == 2  # the shifts; the guard read the memoized gap
    with pytest.raises(ValueError, match="too large"):
        perturb_values(c, gap / 2, seed=0)
