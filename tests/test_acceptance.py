"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (criteria appear as one test
each) or ``-s`` to see the explicit ACCEPTANCE lines.
"""

import random
import time
from fractions import Fraction

from morseminmax.barannikov import Certified, Obstructed, betti, reduce, reduce_integer
from morseminmax.coeff import Coefficients, INTEGERS, RATIONALS, invariant_factors
from morseminmax.complexes import change_basis, negate, parse_complex, restrict, serialize
from morseminmax.gen import (
    FIXTURE_NAMES,
    min_value_gap,
    paper_fixture,
    perturb_values,
)
from morseminmax.oracle import homology, minmax_scan_field
from morseminmax.selector import (
    capitanio_criterion,
    maxmin_field,
    maxmin_int,
    minmax_field,
    minmax_int,
    selector_report,
)

from helpers import invariant_factor_failures

F2 = Coefficients.prime_field(2)
F3 = Coefficients.prime_field(3)
F5 = Coefficients.prime_field(5)
FIELDS = (F2, F3, F5, RATIONALS)

_shared: dict = {}


def _report(number: int, label: str):
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def _field_results(corpus):
    """Per complex and field: (minmax, maxmin, scan); computed once."""
    if "fields" not in _shared:
        results = []
        for c in corpus:
            per_field = {}
            for field in FIELDS:
                mm = minmax_field(c, field)
                sm = maxmin_field(c, field)
                scan = minmax_scan_field(c, field)
                per_field[field.token()] = (mm, sm, scan)
            results.append(per_field)
        _shared["fields"] = results
    return _shared["fields"]


def _int_results(corpus):
    if "ints" not in _shared:
        _shared["ints"] = [(minmax_int(c), maxmin_int(c)) for c in corpus]
    return _shared["ints"]


def test_c01_selector_table_on_laudenbach():
    started = time.monotonic()
    lau = paper_fixture("laudenbach")
    report = selector_report(lau, [INTEGERS, F2, F3, F5, RATIONALS])
    z = report.entry("z")
    assert (z.minmax_value, z.minmax_point.name) == (Fraction(3), "xi3_n")
    assert (z.maxmin_value, z.maxmin_point.name) == (Fraction(2), "xi2_n")
    f2 = report.entry("f2")
    assert (f2.minmax_value, f2.minmax_point.name) == (Fraction(3), "xi3_n")
    assert (f2.maxmin_value, f2.maxmin_point.name) == (Fraction(3), "xi3_n")
    for tok in ("f3", "f5", "q"):
        e = report.entry(tok)
        assert (e.minmax_value, e.minmax_point.name) == (Fraction(2), "xi2_n")
        assert (e.maxmin_value, e.maxmin_point.name) == (Fraction(2), "xi2_n")
    assert not report.int_equal
    assert report.chain_ok
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, "integer/field selector split on laudenbach")


def test_c02_criterion_refutation():
    started = time.monotonic()
    vp = paper_fixture("capitanio_vprime")
    assert capitanio_criterion(vp, "xi2_n") is True
    free = reduce(vp, RATIONALS).free_names()
    assert free == {"xi3_n"}
    assert "xi2_n" not in free
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(2, "incidence-gap criterion passes on a non-free point")


def test_c03_field_selectors_agree(corpus):
    started = time.monotonic()
    failures = 0
    for c, per_field in zip(corpus, _field_results(corpus)):
        for token, (mm, sm, scan) in per_field.items():
            if not (mm == sm == scan):
                failures += 1
    assert failures == 0
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(3, f"minmax = maxmin = scan over 4 fields x {len(corpus)} complexes "
               f"({elapsed:.1f}s)")


def test_c04_inequality_chain(corpus):
    fields = _field_results(corpus)
    ints = _int_results(corpus)
    failures = 0
    for per_field, (mm_int, sm_int) in zip(fields, ints):
        for token, (mm, sm, _scan) in per_field.items():
            if not (sm_int[0] <= sm[0] == mm[0] <= mm_int[0]):
                failures += 1
    assert failures == 0
    _report(4, "integer selectors bound every field selector")


def test_c05_integer_equality_forces_field_values(corpus):
    fields = _field_results(corpus)
    ints = _int_results(corpus)
    failures = 0
    checked = 0
    for per_field, (mm_int, sm_int) in zip(fields, ints):
        if mm_int[0] != sm_int[0]:
            continue
        checked += 1
        for token, (mm, _sm, _scan) in per_field.items():
            if mm[0] != mm_int[0]:
                failures += 1
    assert failures == 0
    assert checked > 0
    _report(5, f"integer equality propagated to fields on {checked} instances")


def test_c06_pairing_invariant_under_conjugation(corpus):
    rng = random.Random(20240)
    failures = 0
    for trial in range(500):
        c = corpus[trial % len(corpus)]
        transforms = {}
        for k in c.degrees():
            mk = len(c.points(k))
            if mk < 2:
                continue
            P = [[1 if i == j else 0 for j in range(mk)] for i in range(mk)]
            for j in range(1, mk):
                for i in range(j):
                    if rng.random() < 0.5:
                        P[i][j] = rng.randint(-3, 3)
            transforms[k] = P
        moved = change_basis(c, transforms)
        for field in FIELDS:
            base = reduce(c, field)
            form = reduce(moved, field)
            if form.pair_names() != base.pair_names():
                failures += 1
            if form.free_names() != base.free_names():
                failures += 1
    assert failures == 0
    _report(6, "pairing and free set invariant under 500 conjugations per field")


def test_c07_free_counts_equal_homology_ranks(corpus):
    failures = 0
    fixtures = [paper_fixture(name) for name in FIXTURE_NAMES]
    for c in fixtures:
        for field in FIELDS:
            for k in range(c.ambient_dim + 1):
                if betti(c, field, k) != homology(c, field, k).rank:
                    failures += 1
    for c in corpus:
        for field in FIELDS:
            for k in range(c.ambient_dim + 1):
                if betti(c, field, k) != homology(c, field, k).rank:
                    failures += 1
    rng = random.Random(777)
    windows = 0
    while windows < 200:
        c = corpus[rng.randrange(len(corpus))]
        values = sorted(p.value for p in c.all_points())
        cuts = [values[0] - 1]
        cuts += [(a + b) / 2 for a, b in zip(values, values[1:])]
        cuts.append(values[-1] + 1)
        lo, hi = sorted(rng.sample(range(len(cuts)), 2))
        if lo == hi:
            continue
        windowed = restrict(c, cuts[lo], cuts[hi])
        windows += 1
        for field in (F2, RATIONALS):
            for k in range(c.ambient_dim + 1):
                if betti(windowed, field, k) != homology(windowed, field, k).rank:
                    failures += 1
    assert failures == 0
    _report(7, "free-point counts match homology ranks (fixtures, corpus, windows)")


def test_c08_unit_certificates_pin_both_selectors(corpus):
    ints = _int_results(corpus)
    failures = 0
    certified = 0
    cases = list(zip(corpus, ints)) + [(paper_fixture("f0"), None)]
    for c, pre in cases:
        outcome = reduce_integer(c)
        if not isinstance(outcome, Certified):
            failures += 1
            continue
        certified += 1
        lam_free = [p for p in outcome.form.free]
        if len(lam_free) != 1:
            failures += 1
            continue
        free_point = lam_free[0]
        mm, sm = pre if pre is not None else (minmax_int(c), maxmin_int(c))
        if not (mm[0] == sm[0] == free_point.value and
                mm[1].name == sm[1].name == free_point.name):
            failures += 1
    outcome = reduce_integer(paper_fixture("laudenbach"))
    assert isinstance(outcome, Obstructed)
    assert abs(outcome.pivot) == 2
    assert failures == 0
    assert certified == len(corpus) + 1
    _report(8, f"{certified} unit certificates place both integer selectors")


def test_c09_stability_under_perturbation(corpus):
    ints = _int_results(corpus)
    fields = _field_results(corpus)
    failures = 0
    for trial in range(200):
        c = corpus[trial]
        gap = min_value_gap(c)
        eps = gap / 4 if gap is not None else Fraction(1, 2)
        moved = perturb_values(c, eps, seed=trial)
        mm_int, sm_int = ints[trial]
        if abs(minmax_int(moved)[0] - mm_int[0]) > eps:
            failures += 1
        if abs(maxmin_int(moved)[0] - sm_int[0]) > eps:
            failures += 1
        for field in FIELDS:
            mm, sm, _scan = fields[trial][field.token()]
            if abs(minmax_field(moved, field)[0] - mm[0]) > eps:
                failures += 1
            if abs(maxmin_field(moved, field)[0] - sm[0]) > eps:
                failures += 1
    assert failures == 0
    _report(9, "selectors move at most eps under 200 eps-perturbations")


def test_c10_duality(corpus):
    ints = _int_results(corpus)
    fields = _field_results(corpus)
    failures = 0
    for trial in range(500):
        c = corpus[trial]
        if negate(negate(c)) != c:
            failures += 1
        # a fresh parse: maxmin_* memoized minmax_* on negate(c) itself
        neg = parse_complex(serialize(negate(c)))
        mm_int, sm_int = ints[trial]
        got = minmax_int(neg)
        if sm_int[0] != -got[0] or sm_int[1].name != got[1].name:
            failures += 1
        for field in FIELDS:
            _mm, sm, _scan = fields[trial][field.token()]
            dual = minmax_field(neg, field)
            if sm[0] != -dual[0] or sm[1].name != dual[1].name:
                failures += 1
    assert failures == 0
    _report(10, "negation is an involution and swaps the selectors")


def test_c11_smith_normal_form_soundness():
    # the Smith elimination validate and the oracle run, against the rank,
    # gcd and determinant routes of helpers.invariant_factor_failures
    started = time.monotonic()
    rng = random.Random(1234)
    failures = 0
    for _ in range(1000):
        m = rng.randint(0, 8)
        n = rng.randint(0, 8)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        failures += len(invariant_factor_failures(A, invariant_factors(A, ncols=n)))
    elapsed = time.monotonic() - started
    assert failures == 0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(11, f"1000 invariant factor sets checked by ranks, gcds and determinants "
                f"({elapsed:.1f}s)")
