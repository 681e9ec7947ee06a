import copy
import random
from collections import Counter
from fractions import Fraction

import pytest

from morseminmax import barannikov
from morseminmax.barannikov import (
    Certified,
    Obstructed,
    _verify_normal_form,
    betti,
    reduce,
    reduce_integer,
)
from morseminmax.coeff import Coefficients, INTEGERS, RATIONALS
from morseminmax.complexes import change_basis, parse_complex, restrict, serialize, validate
from morseminmax.errors import InternalInconsistencyError
from morseminmax.gen import paper_fixture, random_admissible_complex, single_point
from morseminmax.selector import minmax_field

F2 = Coefficients.prime_field(2)
F3 = Coefficients.prime_field(3)
F5 = Coefficients.prime_field(5)


@pytest.fixture
def laudenbach():
    return paper_fixture("laudenbach")


@pytest.fixture
def f0():
    return paper_fixture("f0")


def check_form(c, form):
    # each point appears at most once; pairs descend in value; partition holds
    seen = set()
    for upper, lower in form.pairs:
        assert upper.degree == lower.degree + 1
        assert upper.value > lower.value
        for p in (upper, lower):
            assert p.name not in seen
            seen.add(p.name)
    for p in form.free:
        assert p.name not in seen
        seen.add(p.name)
    assert seen == {p.name for p in c.all_points()}
    # normal-form shape: every column zero or a single 1 in an otherwise-zero row
    for k, B in form.normal.items():
        nrows = len(c.points(k - 1))
        ncols = len(c.points(k))
        hit_rows = set()
        for j in range(ncols):
            nz = [i for i in range(nrows) if B[i][j] != 0]
            assert len(nz) <= 1
            if nz:
                assert B[nz[0]][j] == 1
                assert nz[0] not in hit_rows
                hit_rows.add(nz[0])
    # value-order triangular basis with nonzero diagonal
    for k, P in form.basis.items():
        mk = len(c.points(k))
        for i in range(mk):
            assert P[i][i] != 0
            for row in range(i + 1, mk):
                assert P[row][i] == 0


def test_laudenbach_mod2(laudenbach):
    form = reduce(laudenbach, F2)
    assert form.pair_names() == {("xi1_n", "xi1_nm1"), ("xi1_np1", "xi2_n")}
    assert form.free_names() == {"xi3_n"}
    check_form(laudenbach, form)


def test_laudenbach_rational(laudenbach):
    form = reduce(laudenbach, RATIONALS)
    assert form.pair_names() == {("xi1_n", "xi1_nm1"), ("xi1_np1", "xi3_n")}
    assert form.free_names() == {"xi2_n"}
    check_form(laudenbach, form)


def test_laudenbach_odd_characteristic(laudenbach):
    for field in (F3, F5):
        form = reduce(laudenbach, field)
        assert form.free_names() == {"xi2_n"}


def test_single_point_free():
    c = single_point(2, 5, 4)
    form = reduce(c, RATIONALS)
    assert form.pairs == ()
    assert form.free_names() == {"xi"}


def test_reduce_rejects_integers(laudenbach):
    with pytest.raises(ValueError):
        reduce(laudenbach, INTEGERS)


def test_reduce_integer_obstructed_on_laudenbach(laudenbach):
    outcome = reduce_integer(laudenbach)
    assert isinstance(outcome, Obstructed)
    assert outcome.column.name == "xi1_np1"
    assert outcome.pivot == -2


def test_reduce_integer_certifies_f0(f0):
    outcome = reduce_integer(f0)
    assert isinstance(outcome, Certified)
    assert outcome.form.free_names() == {"xi2_n"}
    assert outcome.form.pair_names() == {("xi1_n", "xi1_nm1"), ("xi1_np1", "xi3_n")}
    check_form(f0, outcome.form)
    # integral data with unit diagonals
    for k, P in outcome.form.basis.items():
        for i in range(len(P)):
            assert P[i][i] in (1, -1)
            assert all(isinstance(v, int) for v in P[i])


def test_reduce_integer_single_point():
    outcome = reduce_integer(single_point(1, 0, 2))
    assert isinstance(outcome, Certified)


def test_certified_matches_rational_pairing():
    for seed in range(25):
        c = random_admissible_complex(seed, max_points=20)
        outcome = reduce_integer(c)
        assert isinstance(outcome, Certified)
        rational = reduce(c, RATIONALS)
        assert outcome.form.pair_names() == rational.pair_names()
        assert outcome.form.free_names() == rational.free_names()
        for field in (F2, F3, F5):
            assert reduce(c, field).pair_names() == rational.pair_names()


def test_betti_examples(laudenbach):
    assert betti(laudenbach, RATIONALS, 2) == 1
    mid = restrict(laudenbach, Fraction(1, 2), Fraction(7, 2))
    assert betti(mid, RATIONALS, 2) == 3
    assert betti(laudenbach, RATIONALS, 7) == 0
    assert betti(laudenbach, F2, 2) == 1


def test_pairing_invariant_under_conjugation(laudenbach):
    rng = random.Random(99)
    base = {field: reduce(laudenbach, field).pair_names() for field in (F2, F3, RATIONALS)}
    for _ in range(20):
        P = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        for j in range(1, 3):
            for i in range(j):
                P[i][j] = rng.randint(-3, 3)
        moved = change_basis(laudenbach, {2: P})
        assert validate(moved).ok
        for field, pairs in base.items():
            form = reduce(moved, field)
            assert form.pair_names() == pairs


def test_normal_form_shape_random():
    for seed in (3, 14, 59):
        c = random_admissible_complex(seed, max_points=24)
        for field in (F2, RATIONALS):
            check_form(c, reduce(c, field))


def _form_over(c, coeff):
    if coeff.is_integers:
        outcome = reduce_integer(c)
        assert isinstance(outcome, Certified)
        return outcome.form
    return reduce(c, coeff)


@pytest.mark.parametrize("coeff", [RATIONALS, F3, INTEGERS], ids=str)
def test_verify_normal_form_catches_corrupt_basis(coeff):
    c = random_admissible_complex(7, max_points=20)
    p = coeff.p or 0
    form = _form_over(c, coeff)
    _verify_normal_form(c, form)
    # every column t of D_k that is nonzero (mod p) makes entry (t, j) of P_k visible
    seen = [(k, t) for k in form.normal for t in range(len(c.points(k)))
            if any(row[t] % p if p else row[t] for row in c.matrix(k))]
    assert seen
    for k, t in seen:
        j = len(c.points(k)) - 1
        bad = copy.deepcopy(form)
        bad.basis[k][t][j] += 1
        with pytest.raises(InternalInconsistencyError, match=f"over {coeff.token()} "):
            _verify_normal_form(c, bad)


@pytest.mark.parametrize("coeff", [RATIONALS, F3, INTEGERS], ids=str)
def test_verify_normal_form_catches_corrupt_normal(coeff):
    c = random_admissible_complex(7, max_points=20)
    form = _form_over(c, coeff)
    checked = 0
    for k in form.normal:
        upper, lower = c.points(k), c.points(k - 1)
        for i in range(len(lower)):
            for j in range(len(upper)):
                bad = copy.deepcopy(form)
                bad.normal[k][i][j] += 1
                with pytest.raises(InternalInconsistencyError) as err:
                    _verify_normal_form(c, bad)
                # the message names the field and the points of the failing entry
                msg = str(err.value)
                assert f"over {coeff.token()} at degree {k}:" in msg
                assert f"column {j} ({upper[j].name})" in msg
                assert any(f"({p.name})" in msg for p in lower)
                checked += 1
    assert checked


def test_reduce_runs_once_per_complex_and_field(monkeypatch):
    calls = Counter()
    real = barannikov._reduce_degree

    def counting(c, k, coeff):
        calls[coeff.token()] += 1
        return real(c, k, coeff)

    monkeypatch.setattr(barannikov, "_reduce_degree", counting)
    c = random_admissible_complex(5, max_points=20)
    n = len(c.degrees())
    # the global index reads homology off the integer reduction
    minmax_field(c, F3)
    for k in range(c.ambient_dim + 1):
        betti(c, F3, k)
    assert calls == {"z": n, "f3": n}
    assert reduce(c, F3) is reduce(c, F3)
    assert reduce_integer(c) is reduce_integer(c)
    assert reduce(c, F3) == reduce(parse_complex(serialize(c)), F3)
    assert reduce(c, F5).coeff == F5
    # the parsed copy is a second complex, validated on parsing
    assert calls == {"z": 2 * n, "f3": 2 * n, "f5": n}
