import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

from morseminmax import barannikov, selector
from morseminmax.barannikov import (
    Certified,
    Obstructed,
    _field_form,
    _invariant_factors,
    _reduce_degree,
    _verify_normal_form,
    betti,
    free_points,
    reduce,
    reduce_integer,
)
from morseminmax.coeff import (
    Coefficients,
    INTEGERS,
    RATIONALS,
    invariant_factors,
    sparse_columns,
)
from morseminmax.complexes import (change_basis, global_index, negate, parse_complex,
                                   restrict, serialize, validate)
from morseminmax.errors import InternalInconsistencyError
from morseminmax.gen import (min_value_gap, paper_fixture, perturb_values,
                             random_admissible_complex, single_point)
from morseminmax.selector import minmax_field, minmax_int, selector_report

from helpers import hidden_laudenbach, mat_mul, rank_fraction, small_matrices

F2 = Coefficients.prime_field(2)
F3 = Coefficients.prime_field(3)
F5 = Coefficients.prime_field(5)


@pytest.fixture
def laudenbach():
    return paper_fixture("laudenbach")


@pytest.fixture
def f0():
    return paper_fixture("f0")


def dense(cols, nrows):
    """Row-major matrix of sparse columns, ``{row: value}`` dicts or
    ``(row, value)`` pairs."""
    rows = [[0] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in dict(col).items():
            rows[i][j] = v
    return rows


def bump(cols, i, j):
    """The sparse columns with 1 added to entry (i, j); only column j is
    rebuilt, in the format it had."""
    return bump_by(cols, i, j, 1)


def bump_by(cols, i, j, delta):
    """The sparse columns with ``delta`` added to entry (i, j); only column j
    is rebuilt, in the format it had."""
    col = dict(cols[j])
    col[i] = col.get(i, 0) + delta
    if not isinstance(cols[j], dict):
        col = tuple(sorted(col.items()))
    return [*cols[:j], col, *cols[j + 1:]]


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
    for k, cols in form.normal.items():
        nrows = len(c.points(k - 1))
        ncols = len(c.points(k))
        B = dense(cols, nrows)
        hit_rows = set()
        for j in range(ncols):
            nz = [i for i in range(nrows) if B[i][j] != 0]
            assert len(nz) <= 1
            if nz:
                assert B[nz[0]][j] == 1
                assert nz[0] not in hit_rows
                hit_rows.add(nz[0])
    # value-order triangular basis with nonzero diagonal
    for k, cols in form.basis.items():
        mk = len(c.points(k))
        P = dense(cols, mk)
        for i in range(mk):
            assert P[i][i] != 0
            for row in range(i + 1, mk):
                assert P[row][i] == 0
    # D_k P_k = P_{k-1} B_k, multiplied out densely and apart from the library
    p = form.coeff.p
    for k in form.normal:
        lower, upper = len(c.points(k - 1)), len(c.points(k))
        lhs = mat_mul(dense(c.columns(k), lower), dense(form.basis[k], upper))
        rhs = mat_mul(dense(form.basis.get(k - 1, ()), lower), dense(form.normal[k], lower))
        if p is not None:
            lhs = [[v % p for v in row] for row in lhs]
            rhs = [[v % p for v in row] for row in rhs]
        assert lhs == rhs


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
    for k, cols in outcome.form.basis.items():
        P = dense(cols, len(cols))
        for i in range(len(P)):
            assert P[i][i] in (1, -1)
            assert all(isinstance(v, int) for v in P[i])


def test_reduce_integer_single_point():
    outcome = reduce_integer(single_point(1, 0, 2))
    assert isinstance(outcome, Certified)


def conjugate_by_multiples(c, p, seed):
    """c under a value-order triangular +-1-diagonal basis change in every
    degree whose entries above the diagonal are multiples of p."""
    rng = random.Random(seed)
    transforms = {}
    for k in c.degrees():
        m = len(c.points(k))
        transforms[k] = [[1 if i == j else p * rng.randint(-2, 2) if i < j else 0
                          for j in range(m)] for i in range(m)]
    return change_basis(c, transforms)


def test_certified_matches_rational_pairing():
    # reduce reads a certified complex's field forms off its integer form;
    # the reduction over each field, which it skips there, must give the
    # same pairing and normal form
    large = Coefficients.prime_field(2**61 - 1)
    complexes = [random_admissible_complex(seed, max_points=20) for seed in range(25)]
    moved = conjugate_by_multiples(random_admissible_complex(9, max_points=24), 3, seed=14)
    assert validate(moved).ok
    complexes.append(moved)
    vanished = 0
    for c in complexes:
        outcome = reduce_integer(c)
        assert isinstance(outcome, Certified)
        for field in (RATIONALS, F2, F3, F5, large):
            form, reduced = reduce(c, field), _field_form(c, field)
            assert form.coeff == field
            assert (form.pairs, form.free, form.normal) == (
                reduced.pairs, reduced.free, reduced.normal)
            check_form(c, form)
            p = field.p
            if p is None:
                assert form == reduced
                continue
            entries = [v for cols in form.basis.values() for col in cols for v in col.values()]
            assert all(0 < v < p for v in entries)
            if p == 3:
                vanished += sum(v % 3 == 0 for cols in outcome.form.basis.values()
                                for col in cols for v in col.values())
    # the multiples of 3 leave integer basis entries that vanish mod 3
    assert vanished


def test_derived_field_forms_of_random_complexes():
    # the selectors and betti read a certified complex's free points off its
    # integer form, so the derived F_p forms are checked here on random
    # complexes, their negations and small perturbations of their values
    for seed in range(100):
        c = random_admissible_complex(seed, max_points=40)
        gap = min_value_gap(c)
        moved = perturb_values(c, gap / 4 if gap is not None else Fraction(1), seed)
        for x in (c, negate(c), moved):
            outcome = reduce_integer(x)
            assert isinstance(outcome, Certified)
            for field in (F2, F3, F5):
                form = reduce(x, field)
                check_form(x, form)
                assert (form.pairs, form.free) == (outcome.form.pairs, outcome.form.free)
                assert free_points(x, field) is outcome.form.free


def test_obstructed_field_forms_split_by_characteristic():
    c = hidden_laudenbach(50)
    assert isinstance(reduce_integer(c), Obstructed)
    assert reduce(c, F2).free_names() == {"xi3_n"}
    for field in (F3, F5, RATIONALS):
        assert reduce(c, field).free_names() == {"xi2_n"}
    for field in (F2, F3):
        check_form(c, reduce(c, field))


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
    seen = [(k, t) for k in form.normal for t, col in enumerate(c.columns(k))
            if any(v % p if p else v for _, v in col)]
    assert seen
    for k, t in seen:
        j = len(c.points(k)) - 1
        bad = replace(form, basis={**form.basis, k: bump(form.basis[k], t, j)})
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
                bad = replace(form, normal={**form.normal, k: bump(form.normal[k], i, j)})
                with pytest.raises(InternalInconsistencyError) as err:
                    _verify_normal_form(c, bad)
                # the message names the field and the points of the failing entry
                msg = str(err.value)
                assert f"over {coeff.token()} at degree {k}:" in msg
                assert f"column {j} ({upper[j].name})" in msg
                assert any(f"({p.name})" in msg for p in lower)
                checked += 1
    assert checked


def _dense_first_failure(c, form):
    """(k, i, j) of the first nonzero entry of D_k P_k - P_{k-1} B_k (mod p),
    multiplied out densely from the ``c.matrix(k)`` views: degrees in
    ``form.normal`` order, then the lowest column, then the least row. None
    when every residual vanishes."""
    p = form.coeff.p
    for k in form.normal:
        lower, upper = len(c.points(k - 1)), len(c.points(k))
        lhs = mat_mul([list(row) for row in c.matrix(k)], dense(form.basis[k], upper))
        rhs = mat_mul(dense(form.basis.get(k - 1, ()), lower), dense(form.normal[k], lower))
        for j in range(upper):
            for i in range(lower):
                r = lhs[i][j] - rhs[i][j]
                if r % p if p else r:
                    return k, i, j
    return None


_BUMPS = {"z": (1, -1, 2), "q": (1, Fraction(1, 2), -3), "f3": (1, 2, 3)}


@pytest.mark.parametrize("coeff", [INTEGERS, RATIONALS, F3], ids=str)
def test_verify_normal_form_agrees_with_the_dense_residual(coeff):
    complexes = [paper_fixture("laudenbach")] + [
        random_admissible_complex(seed, max_points=16) for seed in range(25)]
    rng = random.Random(f"dense-residual/{coeff.token()}")
    outcomes = Counter()
    for c in complexes:
        if coeff.is_integers and isinstance(reduce_integer(c), Obstructed):
            continue  # laudenbach has no Z form
        form = _form_over(c, coeff)
        assert _dense_first_failure(c, form) is None
        degrees = [k for k in form.normal if c.points(k)]
        for _ in range(12):
            bad = form
            for _ in range(rng.choice((1, 1, 2))):  # one entry, sometimes two
                k = rng.choice(degrees)
                j = rng.randrange(len(c.points(k)))
                delta = rng.choice(_BUMPS[coeff.token()])
                if c.points(k - 1) and rng.random() < 0.5:
                    i = rng.randrange(len(c.points(k - 1)))
                    cols = bump_by(bad.normal[k], i, j, delta)
                    bad = replace(bad, normal={**bad.normal, k: cols})
                else:
                    i = rng.randrange(len(c.points(k)))
                    bad = replace(bad, basis={**bad.basis, k: bump_by(bad.basis[k], i, j, delta)})
            expected = _dense_first_failure(c, bad)
            outcomes[expected is not None] += 1
            if expected is None:
                _verify_normal_form(c, bad)
                continue
            k, i, j = expected
            with pytest.raises(InternalInconsistencyError) as err:
                _verify_normal_form(c, bad)
            assert str(err.value) == (
                f"normal form verification failed over {coeff.token()} at degree {k}: "
                f"row {i} ({c.points(k - 1)[i].name}), column {j} ({c.points(k)[j].name})")
    assert outcomes[True] > 50 and outcomes[False] > 10, outcomes


def test_laudenbach_rational_form_has_fraction_entries(laudenbach):
    # the dense-residual test above bumps a form whose basis is not integral
    form = reduce(laudenbach, RATIONALS)
    assert any(isinstance(v, Fraction) and v.denominator != 1
               for cols in form.basis.values() for col in cols for v in col.values())


def test_verify_normal_form_names_indices_outside_the_matrix():
    c = random_admissible_complex(7, max_points=20)
    form = _form_over(c, INTEGERS)
    checked = 0
    for k in form.normal:
        upper, lower = c.points(k), c.points(k - 1)
        if not upper:
            continue
        at = f"normal form verification failed over z at degree {k}: "
        column = f", column 0 ({upper[0].name})"
        for t in (len(upper), -1):
            basis = [dict(col) for col in form.basis[k]]
            basis[0][t] = 1
            with pytest.raises(InternalInconsistencyError) as err:
                _verify_normal_form(c, replace(form, basis={**form.basis, k: basis}))
            assert str(err.value) == f"{at}row {t} of P_{k} is outside range({len(upper)}){column}"
            checked += 1
        for m in (len(lower), -1):
            normal = [((m, 1),), *form.normal[k][1:]]
            with pytest.raises(InternalInconsistencyError) as err:
                _verify_normal_form(c, replace(form, normal={**form.normal, k: normal}))
            assert str(err.value) == f"{at}row {m} of B_{k} is outside range({len(lower)}){column}"
            checked += 1
    assert checked >= 8
    # a lower basis that only the degree-k product reads names its own bad row
    k, j, m = next((k, j, col[0][0]) for k in form.normal
                   for j, col in enumerate(form.normal[k]) if col)
    lower = c.points(k - 1)
    low = [dict(col) for col in form.basis[k - 1]]
    low[m][len(lower)] = 1
    bad = replace(form, basis={**form.basis, k - 1: low},
                  normal={d: cols for d, cols in form.normal.items() if d != k - 1})
    with pytest.raises(InternalInconsistencyError) as err:
        _verify_normal_form(c, bad)
    assert str(err.value) == (
        f"normal form verification failed over z at degree {k}: row {len(lower)} of "
        f"P_{k - 1} is outside range({len(lower)}), column {j} ({c.points(k)[j].name})")


def test_reduce_runs_once_per_complex_and_field(monkeypatch):
    calls = Counter()
    real = barannikov._reduce_degree

    def counting(columns, coeff):
        calls[coeff.token()] += 1
        return real(columns, coeff)

    monkeypatch.setattr(barannikov, "_reduce_degree", counting)
    c = random_admissible_complex(5, max_points=20)
    n = len(c.degrees())
    # the global index reads homology off the integer reduction, and the
    # certified complex's field forms are read off it too
    minmax_field(c, F3)
    for k in range(c.ambient_dim + 1):
        betti(c, F3, k)
    assert calls == {"z": n}
    assert reduce(c, F3) is reduce(c, F3)
    assert reduce_integer(c) is reduce_integer(c)
    assert reduce(c, F3) == reduce(parse_complex(serialize(c)), F3)
    assert reduce(c, F5).coeff == F5
    # the parsed copy is a second complex, validated on parsing
    assert calls == {"z": 2 * n}


@pytest.mark.parametrize("make", [lambda: random_admissible_complex(5, max_points=40),
                                  lambda: hidden_laudenbach(20)],
                         ids=["certified", "obstructed"])
def test_each_integer_boundary_reduction_runs_once(monkeypatch, make):
    # certification, homology, the integer selectors and the field forms of
    # a certified complex share one memoized Z reduction per complex and
    # degree; a stored boundary is a tuple, the selector's presentation in
    # the cycle basis is a list
    boundaries, presentations = Counter(), []
    real = barannikov._reduce_degree

    def counting(columns, coeff):
        if coeff.is_integers:
            if isinstance(columns, tuple):
                boundaries[id(columns)] += 1
            else:
                presentations.append(columns)
        return real(columns, coeff)

    monkeypatch.setattr(barannikov, "_reduce_degree", counting)
    monkeypatch.setattr(selector, "_reduce_degree", counting)
    c = make()
    assert validate(c).admissible
    global_index(c)
    reduce_integer(c)
    selector_report(c, [INTEGERS, F3])
    every = len(c.degrees()) + len(negate(c).degrees())
    # every degree of c; the field maxmin reads reduce_integer(negate(c)),
    # which reduces every degree of negate(c) up to its first obstruction,
    # and the integer maxmin its global degree
    assert set(boundaries.values()) == {1}
    if isinstance(reduce_integer(c), Certified):
        assert len(boundaries) == every
    else:
        assert len(c.degrees()) < len(boundaries) < every
    assert len(presentations) == 2
    # validating negate(c) reduces its other degrees, and nothing twice
    minmax_int(negate(c))
    assert list(boundaries.values()) == [1] * every
    assert len(presentations) == 2


@pytest.mark.parametrize("make, runs", [
    (lambda: random_admissible_complex(5, max_points=40), 0),
    (lambda: hidden_laudenbach(20), 1),
], ids=["certified", "obstructed"])
def test_field_reductions_run_only_on_obstructed_complexes(monkeypatch, make, runs):
    # a certified complex's field forms come from its integer form; an
    # obstructed one is reduced once per field and degree, of c and of
    # negate(c) for the maxmin
    calls = Counter()
    real = barannikov._reduce_degree

    def counting(columns, coeff):
        if coeff.is_field:
            calls[coeff.token(), id(columns)] += 1
        return real(columns, coeff)

    monkeypatch.setattr(barannikov, "_reduce_degree", counting)
    c = make()
    fields = [RATIONALS, F2, F3, F5]
    selector_report(c, fields)
    degrees = len(c.degrees()) + len(negate(c).degrees())
    assert sorted(calls.values()) == [1] * (runs * len(fields) * degrees)
def integer_kernel(A, n):
    """Dead columns of the integer reduction of A, as dense vectors keyed by
    their slot, and the first non-unit pivot."""
    _, C, R, first = _reduce_degree(sparse_columns(A, n), INTEGERS)
    return {j: [C[j].get(i, 0) for i in range(n)] for j in range(n) if not R[j]}, first


def test_integer_kernel_from_dead_columns():
    # x - 2y - z = 0 has a rank-2 kernel lattice
    basis, first = integer_kernel([[1, -2, -1]], 3)
    assert len(basis) == 2 and first is None
    for vec in basis.values():
        assert vec[0] - 2 * vec[1] - vec[2] == 0
    assert integer_kernel([], 3) == ({0: [1, 0, 0], 1: [0, 1, 0], 2: [0, 0, 1]}, None)
    assert integer_kernel([[1, 0], [0, 1]], 2) == ({}, None)
    # Euclid's step: 1 = 1 - 0 * 2 takes the row over from the pivot 2, and
    # the old column 0 then dies as 1 * e0 - 2 * e1 in slot 1
    assert integer_kernel([[2, 1]], 2) == ({1: [1, -2]}, (0, 2))


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_dead_columns_are_an_echelon_kernel_basis(A):
    n = len(A[0]) if A else 0
    basis, _ = integer_kernel(A, n)
    for j, vec in basis.items():
        assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in A)
        assert max(i for i, v in enumerate(vec) if v) == j
    for s in range(n + 1):
        prefix = [vec for j, vec in basis.items() if j < s]
        assert len(prefix) == s - rank_fraction([row[:s] for row in A])
        # saturated: the prefix vectors span every integer cycle of the
        # first s columns, not a finite-index sublattice of them
        assert set(invariant_factors(prefix, ncols=n)) <= {1}
    # the +-1 pivots and the residue's Smith form give every invariant factor
    reduction = _reduce_degree(sparse_columns(A, n), INTEGERS)
    assert _invariant_factors(reduction) == invariant_factors(A, ncols=n)


def test_invariant_factors_of_a_residue():
    # Smith form (2, 4). No pivot divides another entry of its row or
    # column, so reducing this matrix and its transpose in turn leaves it
    # unchanged both times and never reaches a diagonal: the residue takes
    # a Smith form instead
    A = [[2, 2], [-4, 0]]
    reduction = _reduce_degree(sparse_columns(A, 2), INTEGERS)
    transposed = _reduce_degree(sparse_columns(list(zip(*A)), 2), INTEGERS)
    assert (reduction[2], transposed[2]) == ([{0: 2, 1: -4}, {0: 2}], [{0: 2, 1: 2}, {0: -4}])
    assert _invariant_factors(reduction) == invariant_factors(A) == (2, 4)
    # +-1 pivots give factors of 1 and leave the rest to the residue
    B = [[1, 3, 0], [0, 2, 1], [0, 0, 6]]
    reduction = _reduce_degree(sparse_columns(B, 3), INTEGERS)
    assert _invariant_factors(reduction) == invariant_factors(B) == (1, 1, 12)


@pytest.mark.parametrize("make", [lambda: random_admissible_complex(5, max_points=40),
                                  lambda: hidden_laudenbach(20)],
                         ids=["certified", "obstructed"])
def test_field_selectors_and_betti_build_only_the_forms_they_read(monkeypatch, make):
    # a certified complex's free points are its integer form's, so the
    # selectors and betti verify the Z forms of c and negate(c) and build no
    # field form; an obstructed complex is reduced and verified over every
    # field, on c and on negate(c)
    c = make()
    verified, reduced = Counter(), Counter()
    real_verify, real_reduce = barannikov._verify_normal_form, barannikov.reduce

    def counting_verify(x, form):
        verified[form.coeff.token(), "c" if x is c else "negate" if x is negate(c) else "?"] += 1
        real_verify(x, form)

    def counting_reduce(x, field):
        reduced[field.token()] += 1
        return real_reduce(x, field)

    monkeypatch.setattr(barannikov, "_verify_normal_form", counting_verify)
    monkeypatch.setattr(barannikov, "reduce", counting_reduce)
    fields = (F2, F3, F5, RATIONALS)
    selector_report(c, (INTEGERS, *fields))
    for field in fields:
        for k in range(c.ambient_dim + 1):
            betti(c, field, k)
    if isinstance(reduce_integer(c), Certified):
        assert verified == {("z", "c"): 1, ("z", "negate"): 1}
        assert reduced == {}
    else:
        assert verified == {(f.token(), x): 1 for f in fields for x in ("c", "negate")}
        # per field: the minmax, the maxmin on negate(c), and one betti per degree
        assert reduced == {f.token(): 2 + c.ambient_dim + 1 for f in fields}


def test_free_points_rejects_integers(laudenbach, f0):
    for c in (laudenbach, f0):
        with pytest.raises(ValueError):
            free_points(c, INTEGERS)
